package xmlrpc

import (
	"bytes"
	"encoding/base64"
	"errors"
	"fmt"
	"strconv"
	"unicode/utf8"
)

// MaxDepth bounds how deeply <value> elements may nest in a decoded
// document. The deepest rpcproto message, report_batch, nests 5; the
// bound keeps a hostile body from exhausting the decoder's stack.
const MaxDepth = 32

// ErrTooDeep is returned, wrapped, for a document whose values nest
// deeper than MaxDepth.
var ErrTooDeep = errors.New("xmlrpc: values nested deeper than MaxDepth")

// elem is the name of an element XML-RPC uses; the decoder rejects
// every other name.
type elem string

const (
	eValue          elem = "value"
	eString         elem = "string"
	eInt            elem = "int"
	eI4             elem = "i4"
	eI8             elem = "i8"
	eBoolean        elem = "boolean"
	eDouble         elem = "double"
	eBase64         elem = "base64"
	eNil            elem = "nil"
	eArray          elem = "array"
	eData           elem = "data"
	eStruct         elem = "struct"
	eMember         elem = "member"
	eName           elem = "name"
	eParam          elem = "param"
	eParams         elem = "params"
	eFault          elem = "fault"
	eMethodName     elem = "methodName"
	eMethodCall     elem = "methodCall"
	eMethodResponse elem = "methodResponse"
)

// lookupElem returns the element called name, or "" if XML-RPC has
// none by that name.
func lookupElem(name []byte) elem {
	switch string(name) {
	case "value":
		return eValue
	case "string":
		return eString
	case "int":
		return eInt
	case "i4":
		return eI4
	case "i8":
		return eI8
	case "boolean":
		return eBoolean
	case "double":
		return eDouble
	case "base64":
		return eBase64
	case "nil":
		return eNil
	case "array":
		return eArray
	case "data":
		return eData
	case "struct":
		return eStruct
	case "member":
		return eMember
	case "name":
		return eName
	case "param":
		return eParam
	case "params":
		return eParams
	case "fault":
		return eFault
	case "methodName":
		return eMethodName
	case "methodCall":
		return eMethodCall
	case "methodResponse":
		return eMethodResponse
	}
	return ""
}

// plain marks the bytes that text passes over as they are: ASCII
// characters other than '<', '&' and the control characters, save tab
// and newline.
var plain = func() (t [utf8.RuneSelf]bool) {
	for c := range t {
		t[c] = c >= 0x20 && c != '<' && c != '&' || c == '\t' || c == '\n'
	}
	return t
}()

// UnmarshalCall parses a method call document. A document nesting
// values deeper than MaxDepth fails with an error wrapping ErrTooDeep.
func UnmarshalCall(data []byte) (method string, args []any, err error) {
	s := scanner{data: data}
	err = s.document(eMethodCall, func() error {
		if err := s.expect(false, eMethodName); err != nil {
			return err
		}
		t, err := s.text()
		if err != nil {
			return err
		}
		method = string(t)
		if err := s.expect(true, eMethodName); err != nil {
			return err
		}
		// <params> may be left out of a call without arguments.
		if ok, err := s.at(eParams); !ok {
			return err
		}
		return s.children(eParams, eParam, func() error {
			v, err := s.wrapped(eParam)
			args = append(args, v)
			return err
		})
	})
	if err != nil {
		return "", nil, err
	}
	return method, args, nil
}

// UnmarshalResponse parses a method response; faults become *Fault
// errors. Nesting is bounded as in UnmarshalCall.
func UnmarshalResponse(data []byte) (any, error) {
	s := scanner{data: data}
	var result any
	fault := false
	err := s.document(eMethodResponse, func() error {
		var err error
		if fault, err = s.at(eFault); err != nil {
			return err
		}
		if fault {
			result, err = s.wrapped(eFault)
			return err
		}
		if err := s.expect(false, eParams); err != nil {
			return err
		}
		if err := s.expect(false, eParam); err != nil {
			return err
		}
		if result, err = s.wrapped(eParam); err != nil {
			return err
		}
		return s.expect(true, eParams)
	})
	if err != nil {
		return nil, err
	}
	if !fault {
		return result, nil
	}
	st, ok := result.(map[string]any)
	if !ok {
		return nil, fmt.Errorf("xmlrpc: malformed fault")
	}
	f := &Fault{}
	f.Code, _ = st["faultCode"].(int64)
	f.Message, _ = st["faultString"].(string)
	return nil, f
}

// scanner decodes one XML-RPC document in a single pass over its
// bytes. It knows only the XML that XML-RPC needs: an optional XML
// declaration, the element names above without attributes, character
// data with entity and character references, CDATA sections and
// comments. It rejects DTDs, processing instructions, namespaces,
// invalid UTF-8 and characters outside XML's range.
type scanner struct {
	data []byte
	pos  int
	// closing is the element whose end tag an empty-element tag (<x/>)
	// implies; the next tag read is that end tag.
	closing elem
	depth   int    // enclosing <value> elements
	buf     []byte // decoded text that cannot alias data
}

func (s *scanner) errorf(format string, args ...any) error {
	return fmt.Errorf("xmlrpc: offset %d: %s", s.pos, fmt.Sprintf(format, args...))
}

// document decodes the whole input: an optional XML declaration, the
// root element, whose content body decodes, and around the root only
// whitespace and comments.
func (s *scanner) document(root elem, body func() error) error {
	if err := s.declaration(); err != nil {
		return err
	}
	if err := s.expect(false, root); err != nil {
		return err
	}
	if err := body(); err != nil {
		return err
	}
	if err := s.expect(true, root); err != nil {
		return err
	}
	t, err := s.text()
	if err != nil {
		return err
	}
	if !isBlank(t) || s.pos < len(s.data) {
		return s.errorf("content after </%s>", root)
	}
	return nil
}

// declaration consumes an XML declaration at the start of the input:
// <?xml version="1.0" [encoding="UTF-8"] [standalone="yes"|"no"]?>.
func (s *scanner) declaration() error {
	if !bytes.HasPrefix(s.data, []byte("<?xml")) {
		return nil
	}
	s.pos = len("<?xml")
	if v, ok := s.pseudoAttr("version"); !ok || string(v) != "1.0" {
		return s.errorf("XML declaration without version 1.0")
	}
	if v, ok := s.pseudoAttr("encoding"); ok && !bytes.EqualFold(v, []byte("utf-8")) {
		return s.errorf("unsupported encoding %q", v)
	}
	if v, ok := s.pseudoAttr("standalone"); ok && string(v) != "yes" && string(v) != "no" {
		return s.errorf("bad standalone %q", v)
	}
	for s.pos < len(s.data) && isSpace(s.data[s.pos]) {
		s.pos++
	}
	if !bytes.HasPrefix(s.data[s.pos:], []byte("?>")) {
		return s.errorf("malformed XML declaration")
	}
	s.pos += len("?>")
	return nil
}

// pseudoAttr consumes ` name="value"` (or single-quoted) and returns
// the value, or leaves the input alone and reports false.
func (s *scanner) pseudoAttr(name string) ([]byte, bool) {
	d, p := s.data, s.pos
	for p < len(d) && isSpace(d[p]) {
		p++
	}
	if p == s.pos || !bytes.HasPrefix(d[p:], []byte(name)) {
		return nil, false
	}
	p += len(name)
	if p+1 >= len(d) || d[p] != '=' || d[p+1] != '"' && d[p+1] != '\'' {
		return nil, false
	}
	v := d[p+2:]
	n := bytes.IndexByte(v, d[p+1])
	if n < 0 {
		return nil, false
	}
	s.pos = p + 2 + n + 1
	return v[:n], true
}

// text reads character data up to the next tag, dropping comments,
// turning \r\n and \r into \n, and decoding references and CDATA
// sections. The result aliases the input when nothing needed decoding,
// and s.buf otherwise; it is valid until the next call.
func (s *scanner) text() ([]byte, error) {
	if s.closing != "" {
		return nil, nil
	}
	d := s.data
	start, out, copied := s.pos, s.buf[:0], false
	for s.pos < len(d) {
		c := d[s.pos]
		if c < utf8.RuneSelf && plain[c] {
			s.pos++
			continue
		}
		if c >= utf8.RuneSelf {
			r, n := utf8.DecodeRune(d[s.pos:])
			if r == utf8.RuneError && n == 1 || !isChar(r) {
				return nil, s.errorf("invalid UTF-8 or character")
			}
			s.pos += n
			continue
		}
		comment := bytes.HasPrefix(d[s.pos:], []byte("<!--"))
		if c == '<' && !comment && !bytes.HasPrefix(d[s.pos:], []byte("<![CDATA[")) {
			break
		}
		out, copied = append(out, d[start:s.pos]...), true
		var err error
		switch {
		case c == '\r':
			out = append(out, '\n')
			s.pos++
			if s.pos < len(d) && d[s.pos] == '\n' {
				s.pos++
			}
		case c == '&':
			out, err = s.reference(out)
		case comment:
			err = s.comment()
		case c == '<':
			out, err = s.cdata(out)
		default:
			err = s.errorf("illegal character %#x", c)
		}
		if err != nil {
			return nil, err
		}
		start = s.pos
	}
	if !copied {
		return d[start:s.pos], nil
	}
	out = append(out, d[start:s.pos]...)
	s.buf = out
	return out, nil
}

// reference appends the character that the entity or character
// reference at s.pos stands for.
func (s *scanner) reference(out []byte) ([]byte, error) {
	ref := s.data[s.pos+1:]
	// The longest reference XML-RPC can need is "&#x10FFFF;".
	semi := bytes.IndexByte(ref[:min(len(ref), len("#x10FFFF;"))], ';')
	if semi < 0 {
		return nil, s.errorf("unterminated reference")
	}
	ref = ref[:semi]
	switch string(ref) {
	case "lt":
		out = append(out, '<')
	case "gt":
		out = append(out, '>')
	case "amp":
		out = append(out, '&')
	case "apos":
		out = append(out, '\'')
	case "quot":
		out = append(out, '"')
	default:
		if len(ref) < 2 || ref[0] != '#' {
			return nil, s.errorf("unknown entity &%s;", ref)
		}
		digits, base := ref[1:], 10
		if digits[0] == 'x' {
			digits, base = digits[1:], 16
		}
		n, err := strconv.ParseUint(string(digits), base, 32)
		if err != nil || !isChar(rune(n)) {
			return nil, s.errorf("bad character reference &%s;", ref)
		}
		out = utf8.AppendRune(out, rune(n))
	}
	s.pos += 1 + semi + 1
	return out, nil
}

// comment skips the comment at s.pos; as in XML, "--" may only end it.
func (s *scanner) comment() error {
	body := s.data[s.pos+len("<!--"):]
	end := bytes.Index(body, []byte("--"))
	if end < 0 || end+2 >= len(body) || body[end+2] != '>' {
		return s.errorf("malformed comment")
	}
	if !validChars(body[:end]) {
		return s.errorf("invalid UTF-8 or character in comment")
	}
	s.pos += len("<!--") + end + len("-->")
	return nil
}

// cdata appends the content of the CDATA section at s.pos.
func (s *scanner) cdata(out []byte) ([]byte, error) {
	body := s.data[s.pos+len("<![CDATA["):]
	end := bytes.Index(body, []byte("]]>"))
	if end < 0 {
		return nil, s.errorf("unterminated CDATA section")
	}
	body = body[:end]
	if !validChars(body) {
		return nil, s.errorf("invalid UTF-8 or character in CDATA section")
	}
	s.pos += len("<![CDATA[") + end + len("]]>")
	for {
		i := bytes.IndexByte(body, '\r')
		if i < 0 {
			return append(out, body...), nil
		}
		out = append(append(out, body[:i]...), '\n')
		body = body[i+1:]
		if len(body) > 0 && body[0] == '\n' {
			body = body[1:]
		}
	}
}

// tag reads the start or end tag at s.pos, or returns the end tag an
// empty-element tag implied.
func (s *scanner) tag() (end bool, e elem, err error) {
	if s.closing != "" {
		e, s.closing = s.closing, ""
		return true, e, nil
	}
	d := s.data
	if s.pos >= len(d) {
		return false, "", s.errorf("unexpected end of document")
	}
	// text stops only at the end of the input or at a '<'.
	p := s.pos + 1
	if p < len(d) && d[p] == '/' {
		end = true
		p++
	}
	name := p
	for p < len(d) && ('a' <= d[p] && d[p] <= 'z' || 'A' <= d[p] && d[p] <= 'Z' || '0' <= d[p] && d[p] <= '9') {
		p++
	}
	if e = lookupElem(d[name:p]); e == "" {
		return false, "", s.errorf("unknown element or markup")
	}
	for p < len(d) && isSpace(d[p]) {
		p++
	}
	if !end && p < len(d) && d[p] == '/' {
		s.closing = e
		p++
	}
	if p >= len(d) || d[p] != '>' {
		return false, "", s.errorf("malformed tag <%s>", e)
	}
	s.pos = p + 1
	return end, e, nil
}

// next skips whitespace and comments and reads the following tag.
func (s *scanner) next() (end bool, e elem, err error) {
	t, err := s.text()
	if err != nil {
		return false, "", err
	}
	if !isBlank(t) {
		return false, "", s.errorf("unexpected text")
	}
	return s.tag()
}

// expect reads the next tag, which must be the start tag of e, or its
// end tag if end is set.
func (s *scanner) expect(end bool, e elem) error {
	gotEnd, got, err := s.next()
	if err == nil && (gotEnd != end || got != e) {
		slash := ""
		if end {
			slash = "/"
		}
		err = s.errorf("expected <%s%s>", slash, e)
	}
	return err
}

// at reports whether the next tag is the start tag of e, consuming it
// only if so.
func (s *scanner) at(e elem) (bool, error) {
	pos, closing := s.pos, s.closing
	end, got, err := s.next()
	if err != nil || end || got != e {
		s.pos, s.closing = pos, closing
		return false, err
	}
	return true, nil
}

// children calls fn after the start tag of each child element of
// parent, whose own start tag has been read, through parent's end tag.
func (s *scanner) children(parent, child elem, fn func() error) error {
	for {
		end, e, err := s.next()
		if err != nil {
			return err
		}
		if end && e == parent {
			return nil
		}
		if end || e != child {
			return s.errorf("expected <%s> or </%s>", child, parent)
		}
		if err := fn(); err != nil {
			return err
		}
	}
}

// wrapped decodes "<value>…</value></e>" after the start tag of e.
func (s *scanner) wrapped(e elem) (any, error) {
	if err := s.expect(false, eValue); err != nil {
		return nil, err
	}
	v, err := s.value()
	if err != nil {
		return nil, err
	}
	return v, s.expect(true, e)
}

// value decodes the content of a <value> element, whose start tag has
// been read, through its end tag. Untyped content is a string.
func (s *scanner) value() (any, error) {
	if s.depth == MaxDepth {
		return nil, fmt.Errorf("%w (offset %d)", ErrTooDeep, s.pos)
	}
	t, err := s.text()
	if err != nil {
		return nil, err
	}
	end, e, err := s.tag()
	switch {
	case err != nil:
		return nil, err
	case end && e == eValue:
		return string(t), nil
	case end || !isBlank(t):
		return nil, s.errorf("malformed <value>")
	}
	s.depth++
	v, err := s.typed(e)
	s.depth--
	if err != nil {
		return nil, err
	}
	return v, s.expect(true, eValue)
}

// typed decodes the typed element e, whose start tag has been read,
// through its end tag.
func (s *scanner) typed(e elem) (any, error) {
	switch e {
	case eArray:
		if err := s.expect(false, eData); err != nil {
			return nil, err
		}
		out := []any{}
		err := s.children(eData, eValue, func() error {
			v, err := s.value()
			out = append(out, v)
			return err
		})
		if err == nil {
			err = s.expect(true, eArray)
		}
		return out, err
	case eStruct:
		out := map[string]any{}
		err := s.children(eStruct, eMember, func() error {
			if err := s.expect(false, eName); err != nil {
				return err
			}
			t, err := s.text()
			if err != nil {
				return err
			}
			name := string(t)
			if err := s.expect(true, eName); err != nil {
				return err
			}
			v, err := s.wrapped(eMember)
			out[name] = v
			return err
		})
		return out, err
	}
	t, err := s.text()
	if err != nil {
		return nil, err
	}
	v, err := scalar(e, t)
	if err != nil {
		return nil, s.errorf("<%s>: %v", e, err)
	}
	return v, s.expect(true, e)
}

// scalar converts the text content of the scalar element e.
func scalar(e elem, t []byte) (any, error) {
	switch e {
	case eString:
		return string(t), nil
	case eInt, eI4, eI8:
		return strconv.ParseInt(string(bytes.TrimSpace(t)), 10, 64)
	case eBoolean:
		switch string(bytes.TrimSpace(t)) {
		case "1", "true":
			return true, nil
		case "0", "false":
			return false, nil
		}
		return nil, fmt.Errorf("bad boolean %q", t)
	case eDouble:
		return strconv.ParseFloat(string(bytes.TrimSpace(t)), 64)
	case eBase64:
		if bytes.ContainsAny(t, " \t") {
			t = bytes.Map(dropSpace, t)
		}
		out := make([]byte, base64.StdEncoding.DecodedLen(len(t)))
		n, err := base64.StdEncoding.Decode(out, t)
		return out[:n], err
	case eNil:
		if !isBlank(t) {
			return nil, errors.New("text in <nil>")
		}
		return nil, nil
	}
	return nil, errors.New("not a value type")
}

func dropSpace(r rune) rune {
	if r < utf8.RuneSelf && isSpace(byte(r)) {
		return -1
	}
	return r
}

func isSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\r'
}

func isBlank(t []byte) bool {
	for _, c := range t {
		if !isSpace(c) {
			return false
		}
	}
	return true
}

// isChar reports whether r is in XML 1.0's Char production.
func isChar(r rune) bool {
	return r == '\t' || r == '\n' || r == '\r' ||
		r >= 0x20 && r <= 0xD7FF ||
		r >= 0xE000 && r <= 0xFFFD ||
		r >= 0x10000 && r <= utf8.MaxRune
}

// validChars reports whether b is valid UTF-8 holding only XML
// characters.
func validChars(b []byte) bool {
	for len(b) > 0 {
		r, n := utf8.DecodeRune(b)
		if r == utf8.RuneError && n == 1 || !isChar(r) {
			return false
		}
		b = b[n:]
	}
	return true
}
