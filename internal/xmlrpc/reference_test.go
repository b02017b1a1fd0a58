package xmlrpc_test

// The encoding/xml decoder that the scanner in decode.go replaced,
// kept verbatim apart from names as the differential reference for
// FuzzUnmarshalCall and FuzzUnmarshalResponse: whatever the scanner
// accepts, this decoder must decode to the same value.

import (
	"bytes"
	"encoding/base64"
	"encoding/xml"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/xmlrpc"
)

// refUnmarshalCall parses a method call document.
func refUnmarshalCall(data []byte) (method string, args []any, err error) {
	d := xml.NewDecoder(bytes.NewReader(data))
	if err := refExpectStart(d, "methodCall"); err != nil {
		return "", nil, err
	}
	for {
		tok, err := d.Token()
		if err == io.EOF {
			return method, args, nil
		}
		if err != nil {
			return "", nil, err
		}
		se, ok := tok.(xml.StartElement)
		if !ok {
			continue
		}
		switch se.Name.Local {
		case "methodName":
			s, err := refReadCharData(d, "methodName")
			if err != nil {
				return "", nil, err
			}
			method = s
		case "value":
			v, err := refParseValue(d)
			if err != nil {
				return "", nil, err
			}
			args = append(args, v)
		}
	}
}

// refUnmarshalResponse parses a method response; faults become *Fault errors.
func refUnmarshalResponse(data []byte) (any, error) {
	d := xml.NewDecoder(bytes.NewReader(data))
	if err := refExpectStart(d, "methodResponse"); err != nil {
		return nil, err
	}
	for {
		tok, err := d.Token()
		if err == io.EOF {
			return nil, fmt.Errorf("xmlrpc: response with no value")
		}
		if err != nil {
			return nil, err
		}
		se, ok := tok.(xml.StartElement)
		if !ok {
			continue
		}
		switch se.Name.Local {
		case "fault":
			v, err := refFindAndParseValue(d)
			if err != nil {
				return nil, err
			}
			st, ok := v.(map[string]any)
			if !ok {
				return nil, fmt.Errorf("xmlrpc: malformed fault")
			}
			f := &xmlrpc.Fault{}
			if c, ok := st["faultCode"].(int64); ok {
				f.Code = c
			}
			if s, ok := st["faultString"].(string); ok {
				f.Message = s
			}
			return nil, f
		case "value":
			return refParseValue(d)
		}
	}
}

func refExpectStart(d *xml.Decoder, name string) error {
	for {
		tok, err := d.Token()
		if err != nil {
			return fmt.Errorf("xmlrpc: expected <%s>: %w", name, err)
		}
		if se, ok := tok.(xml.StartElement); ok {
			if se.Name.Local != name {
				return fmt.Errorf("xmlrpc: expected <%s>, got <%s>", name, se.Name.Local)
			}
			return nil
		}
	}
}

// refReadCharData consumes character data until the close tag of elem.
func refReadCharData(d *xml.Decoder, elem string) (string, error) {
	var sb strings.Builder
	for {
		tok, err := d.Token()
		if err != nil {
			return "", err
		}
		switch t := tok.(type) {
		case xml.CharData:
			sb.Write(t)
		case xml.EndElement:
			if t.Name.Local == elem {
				return sb.String(), nil
			}
		case xml.StartElement:
			return "", fmt.Errorf("xmlrpc: unexpected <%s> inside <%s>", t.Name.Local, elem)
		}
	}
}

// refParseValue parses the contents of an already-opened <value> element
// through its closing tag.
func refParseValue(d *xml.Decoder) (any, error) {
	var text strings.Builder
	for {
		tok, err := d.Token()
		if err != nil {
			return nil, err
		}
		switch t := tok.(type) {
		case xml.CharData:
			text.Write(t)
		case xml.EndElement:
			// </value> with no typed child: per spec, the text is a string.
			if t.Name.Local == "value" {
				return text.String(), nil
			}
		case xml.StartElement:
			v, err := refParseTyped(d, t.Name.Local)
			if err != nil {
				return nil, err
			}
			// consume until </value>
			if err := refSkipToEnd(d, "value"); err != nil {
				return nil, err
			}
			return v, nil
		}
	}
}

func refSkipToEnd(d *xml.Decoder, elem string) error {
	depth := 0
	for {
		tok, err := d.Token()
		if err != nil {
			return err
		}
		switch t := tok.(type) {
		case xml.StartElement:
			depth++
		case xml.EndElement:
			if depth == 0 && t.Name.Local == elem {
				return nil
			}
			depth--
		}
	}
}

func refParseTyped(d *xml.Decoder, typ string) (any, error) {
	switch typ {
	case "int", "i4", "i8":
		s, err := refReadCharData(d, typ)
		if err != nil {
			return nil, err
		}
		return strconv.ParseInt(strings.TrimSpace(s), 10, 64)
	case "boolean":
		s, err := refReadCharData(d, typ)
		if err != nil {
			return nil, err
		}
		switch strings.TrimSpace(s) {
		case "1", "true":
			return true, nil
		case "0", "false":
			return false, nil
		}
		return nil, fmt.Errorf("xmlrpc: bad boolean %q", s)
	case "double":
		s, err := refReadCharData(d, typ)
		if err != nil {
			return nil, err
		}
		return strconv.ParseFloat(strings.TrimSpace(s), 64)
	case "string":
		return refReadCharData(d, typ)
	case "base64":
		s, err := refReadCharData(d, typ)
		if err != nil {
			return nil, err
		}
		return base64.StdEncoding.DecodeString(strings.Map(refDropSpace, s))
	case "array":
		return refParseArray(d)
	case "struct":
		return refParseStruct(d)
	case "nil":
		if err := refSkipToEnd(d, "nil"); err != nil {
			return nil, err
		}
		return nil, nil
	}
	return nil, fmt.Errorf("xmlrpc: unknown value type <%s>", typ)
}

func refDropSpace(r rune) rune {
	switch r {
	case ' ', '\t', '\n', '\r':
		return -1
	}
	return r
}

func refParseArray(d *xml.Decoder) (any, error) {
	out := []any{}
	for {
		tok, err := d.Token()
		if err != nil {
			return nil, err
		}
		switch t := tok.(type) {
		case xml.StartElement:
			if t.Name.Local == "value" {
				v, err := refParseValue(d)
				if err != nil {
					return nil, err
				}
				out = append(out, v)
			}
		case xml.EndElement:
			if t.Name.Local == "array" {
				return out, nil
			}
		}
	}
}

func refParseStruct(d *xml.Decoder) (any, error) {
	out := map[string]any{}
	var name string
	for {
		tok, err := d.Token()
		if err != nil {
			return nil, err
		}
		switch t := tok.(type) {
		case xml.StartElement:
			switch t.Name.Local {
			case "name":
				s, err := refReadCharData(d, "name")
				if err != nil {
					return nil, err
				}
				name = s
			case "value":
				v, err := refParseValue(d)
				if err != nil {
					return nil, err
				}
				out[name] = v
			}
		case xml.EndElement:
			if t.Name.Local == "struct" {
				return out, nil
			}
		}
	}
}

// refFindAndParseValue scans forward to the next <value> element and
// parses it; used for the single value inside <fault>.
func refFindAndParseValue(d *xml.Decoder) (any, error) {
	for {
		tok, err := d.Token()
		if err == io.EOF {
			return nil, fmt.Errorf("xmlrpc: no value found")
		}
		if err != nil {
			return nil, err
		}
		if se, ok := tok.(xml.StartElement); ok && se.Name.Local == "value" {
			return refParseValue(d)
		}
	}
}
