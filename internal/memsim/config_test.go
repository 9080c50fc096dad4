package memsim_test

import (
	"strings"
	"testing"

	"tquad/internal/memsim"
)

func TestParseConfigGood(t *testing.T) {
	cases := []struct {
		in      string
		wantKey string
	}{
		{"l1=32k/8/64", "l1=32768/8/64"},
		{"l1=32K/8/64", "l1=32768/8/64"},
		{"L1=32k/8/64", "l1=32768/8/64"},
		{" l1 = 32k / 8 / 64 ", "l1=32768/8/64"},
		{"l1=32k/8/64,l2=256k/8/64", "l1=32768/8/64,l2=262144/8/64"},
		{"l1=32k/8/64,l2=256k/8/64,llc=8m/16/64", "l1=32768/8/64,l2=262144/8/64,llc=8388608/16/64"},
		{"l1=1024/1/64", "l1=1024/1/64"}, // plain bytes, direct-mapped
		{"l1=16k/4/128,l2=1m/8/128", "l1=16384/4/128,l2=1048576/8/128"},
	}
	for _, c := range cases {
		cfg, err := memsim.ParseConfig(c.in)
		if err != nil {
			t.Errorf("ParseConfig(%q): %v", c.in, err)
			continue
		}
		if cfg.Key() != c.wantKey {
			t.Errorf("ParseConfig(%q).Key() = %q, want %q", c.in, cfg.Key(), c.wantKey)
		}
		// The canonical key must round-trip to an equal configuration.
		again, err := memsim.ParseConfig(cfg.Key())
		if err != nil {
			t.Errorf("round-trip ParseConfig(%q): %v", cfg.Key(), err)
		} else if again.Key() != cfg.Key() {
			t.Errorf("key not canonical: %q -> %q", cfg.Key(), again.Key())
		}
	}
}

func TestParseConfigRejects(t *testing.T) {
	cases := []struct {
		in   string
		want string // substring of the error
	}{
		{"", "empty"},
		{"l1", "want name=size/ways/line"},
		{"l1=32k/8", "want name=size/ways/line"},
		{"l1=32k/8/64/2", "want name=size/ways/line"},
		{"l2=32k/8/64", "want \"l1\""},              // wrong first level
		{"l1=32k/8/64,llc=8m/16/64", "want \"l2\""}, // gap in hierarchy
		{"l1=32k/8/64,l2=256k/8/64,llc=8m/16/64,l4=1g/16/64", "exceeds max"},
		{"l1=0/8/64", "not a multiple"},            // zero size
		{"l1=32k/0/64", "associativity"},           // zero ways
		{"l1=32k/8/0", "line size"},                // zero line
		{"l1=32k/8/48", "power of two"},            // non-pow2 line
		{"l1=48k/8/64", "sets"},                    // 96 sets, non-pow2
		{"l1=32k/8/64,l2=256k/8/128", "line size"}, // mismatched lines
		{"l1=256k/8/64,l2=32k/8/64", "smaller"},    // shrinking outward
		{"l1=999999999g/8/64", "overflow"},         // size overflow
		{"l1=1g/1/8", "exceeding the cap"},         // too many lines
		{"l1=32q/8/64", "size"},                    // bad suffix
		{"l1=-32k/8/64", "size"},                   // negative
		{"l1=32k/abc/64", "ways"},                  // non-numeric ways
	}
	for _, c := range cases {
		_, err := memsim.ParseConfig(c.in)
		if err == nil {
			t.Errorf("ParseConfig(%q) succeeded, want error containing %q", c.in, c.want)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("ParseConfig(%q) error %q, want substring %q", c.in, err, c.want)
		}
	}
}

func TestValidateDRAMRow(t *testing.T) {
	cfg, err := memsim.ParseConfig("l1=32k/8/64")
	if err != nil {
		t.Fatal(err)
	}
	cfg.DRAM.RowSize = 96 // not a power of two
	if err := cfg.Validate(); err == nil {
		t.Error("non-power-of-two row size accepted")
	}
	cfg.DRAM.RowSize = 32 // smaller than the line
	if err := cfg.Validate(); err == nil {
		t.Error("row smaller than line accepted")
	}
}

// FuzzCacheConfig: hostile -cache input must error cleanly, never panic,
// and anything accepted must satisfy the validator and have a canonical
// round-tripping key.
func FuzzCacheConfig(f *testing.F) {
	seeds := []string{
		"l1=32k/8/64",
		"l1=32k/8/64,l2=256k/8/64,llc=8m/16/64",
		"l1=32k/8/64,l2=256k/8/128",
		"l1=48k/8/64",
		"l1=0/0/0",
		"l1=18446744073709551615g/1/64",
		"llc=8m/16/64",
		"l1=,l2=",
		"l1=32k/8/64,,llc=8m/16/64",
		"=//",
		"l1=1g/1/8",
		strings.Repeat("l1=32k/8/64,", 50),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		cfg, err := memsim.ParseConfig(s)
		if err != nil {
			return
		}
		// Whatever parses must be internally consistent...
		if err := cfg.Validate(); err != nil {
			t.Fatalf("ParseConfig(%q) accepted an invalid config: %v", s, err)
		}
		for _, lv := range cfg.Levels {
			sets := lv.Sets()
			if sets == 0 || sets&(sets-1) != 0 {
				t.Fatalf("ParseConfig(%q): %s has %d sets", s, lv.Name, sets)
			}
			if lv.LineSize != cfg.LineSize() {
				t.Fatalf("ParseConfig(%q): mixed line sizes", s)
			}
		}
		// ...and its key must be a fixed point of the parser.
		again, err := memsim.ParseConfig(cfg.Key())
		if err != nil {
			t.Fatalf("canonical key %q rejected: %v", cfg.Key(), err)
		}
		if again.Key() != cfg.Key() {
			t.Fatalf("key not canonical: %q -> %q", cfg.Key(), again.Key())
		}
	})
}
