package cluster

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/kvio"
	"repro/internal/obs"
	"repro/internal/wirecodec"
)

// TestCodecGridByteIdentical is the block data plane's correctness
// gate: the same shuffle-heavy job under the default settings (identity
// blocks, and deflate blocks under Compress) and under every registered
// block codec and columnar key encoding, each at prefetch width 1 and
// 8, over the direct HTTP data plane — every output must be
// byte-identical.
func TestCodecGridByteIdentical(t *testing.T) {
	type config struct {
		codec    string
		encoding string
		compress bool
		prefetch int
	}
	var configs []config
	for _, p := range []int{1, 8} {
		configs = append(configs,
			config{codec: "", compress: false, prefetch: p},
			config{codec: "", compress: true, prefetch: p},
		)
		for _, name := range wirecodec.Names() {
			configs = append(configs, config{codec: name, prefetch: p})
			// The columnar plane under every key encoding.
			for _, enc := range []string{"columnar-raw", "columnar-dict", "columnar-delta"} {
				configs = append(configs, config{codec: name, encoding: enc, prefetch: p})
			}
		}
	}
	var want []kvio.Pair
	for _, cfg := range configs {
		cfg := cfg
		name := fmt.Sprintf("codec=%s,compress=%v,prefetch=%d", cfg.codec, cfg.compress, cfg.prefetch)
		if cfg.codec == "" {
			name = fmt.Sprintf("default,compress=%v,prefetch=%d", cfg.compress, cfg.prefetch)
		}
		if cfg.encoding != "" {
			name = fmt.Sprintf("codec=%s,enc=%s,prefetch=%d", cfg.codec, cfg.encoding, cfg.prefetch)
		}
		t.Run(name, func(t *testing.T) {
			rt := obs.New(nil)
			c, err := Start(testRegistry(), Options{
				Slaves:        3,
				Prefetch:      cfg.prefetch,
				Compress:      cfg.compress,
				Codec:         cfg.codec,
				BlockEncoding: cfg.encoding,
				Obs:           rt,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			got := runShuffleJob(t, c, rt)
			if len(got) == 0 {
				t.Fatal("job produced no output")
			}
			if want == nil {
				want = got
			} else if !samePairs(want, got) {
				t.Errorf("%s output diverged from baseline: %d records vs %d",
					name, len(got), len(want))
			}
			if cfg.encoding != "" {
				// Columnar cells: columnar blocks were actually written,
				// and peers fetched them as written.
				snap := rt.M().Snapshot()
				if snap[obs.MetricBlocksColumnar] == 0 {
					t.Error("no columnar blocks written under a columnar encoding")
				}
				wire := snap[obs.MetricWireBytesDirect]
				if colWire := snap[obs.MetricWireBytesEncoding("columnar")]; colWire != wire {
					t.Errorf("columnar wire bytes = %d, want all direct traffic %d", colWire, wire)
				}
			}
			// Homogeneous fleet: every direct-path wire byte moved under
			// the configured codec (the default: identity, or deflate
			// under Compress), so the per-codec counter must equal the
			// per-path wire counter; and a compressing codec must
			// actually undercut the decoded payload.
			codecName := cfg.codec
			if codecName == "" {
				codecName = wirecodec.IdentityName
				if cfg.compress {
					codecName = wirecodec.DeflateName
				}
			}
			snap := rt.M().Snapshot()
			raw := snap[obs.MetricShuffleBytesDirect]
			wire := snap[obs.MetricWireBytesDirect]
			perCodec := snap[obs.MetricWireBytesCodec(codecName)]
			if raw == 0 {
				t.Fatal("no direct-path shuffle bytes recorded")
			}
			if wire == 0 {
				t.Fatal("no direct-path wire bytes recorded")
			}
			if perCodec != wire {
				t.Errorf("per-codec wire bytes = %d, want %d (all traffic under %s)",
					perCodec, wire, codecName)
			}
			if codecName == wirecodec.IdentityName {
				// Identity blocks add framing on top of the payload.
				if wire < raw {
					t.Errorf("identity wire bytes = %d below payload %d; compressed?", wire, raw)
				}
			} else if wire >= raw {
				t.Errorf("%s wire bytes = %d, want < payload %d", codecName, wire, raw)
			}
		})
	}
}

// TestCodecSerialMatchesCluster closes the cross-mode half of the
// grid: the serial executor (memory buckets, default settings), the mock
// executor with each block codec at rest (file buckets), and an lz
// cluster must all produce byte-identical output. A codec is a storage
// and wire detail; it must never be observable in job results.
func TestCodecSerialMatchesCluster(t *testing.T) {
	rt := obs.New(nil)
	c, err := Start(testRegistry(), Options{Slaves: 3, Codec: wirecodec.LZName, Obs: rt})
	if err != nil {
		t.Fatal(err)
	}
	want := runShuffleJob(t, c, rt)
	c.Close()
	if len(want) == 0 {
		t.Fatal("cluster run produced no output")
	}

	serial := core.NewSerial(testRegistry())
	got := runShuffleJobOn(t, serial, nil)
	serial.Close()
	if !samePairs(want, got) {
		t.Errorf("serial output diverged from lz cluster: %d records vs %d", len(got), len(want))
	}

	for _, name := range wirecodec.Names() {
		exec, err := core.NewMockParallel(testRegistry(), t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if err := exec.SetCodec(name); err != nil {
			t.Fatal(err)
		}
		got := runShuffleJobOn(t, exec, nil)
		exec.Close()
		if !samePairs(want, got) {
			t.Errorf("mock codec=%s output diverged from lz cluster: %d records vs %d",
				name, len(got), len(want))
		}
	}
}
