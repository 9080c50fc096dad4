package wav_test

import (
	"testing"
	"testing/quick"

	"tquad/internal/wav"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	f := func(rate16 uint16, channels8 uint8, samples []int16) bool {
		rate := int(rate16)%96000 + 8000
		channels := int(channels8)%8 + 1
		// Trim to whole frames.
		n := len(samples) / channels * channels
		in := &wav.File{SampleRate: rate, Channels: channels, Samples: samples[:n]}
		out, err := wav.Decode(wav.Encode(in))
		if err != nil {
			t.Logf("decode: %v", err)
			return false
		}
		if out.SampleRate != rate || out.Channels != channels || len(out.Samples) != n {
			return false
		}
		for i := range out.Samples {
			if out.Samples[i] != in.Samples[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	cases := map[string][]byte{
		"empty":     {},
		"short":     []byte("RIFF"),
		"bad magic": append([]byte("JUNK"), make([]byte, 60)...),
	}
	for name, b := range cases {
		if _, err := wav.Decode(b); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	// Valid header but wrong format tag.
	good := wav.Encode(&wav.File{SampleRate: 8000, Channels: 1, Samples: []int16{1}})
	bad := append([]byte(nil), good...)
	bad[20] = 3 // float format
	if _, err := wav.Decode(bad); err == nil {
		t.Errorf("non-PCM format accepted")
	}
	bad = append([]byte(nil), good...)
	bad[34] = 8 // 8-bit
	if _, err := wav.Decode(bad); err == nil {
		t.Errorf("8-bit accepted")
	}
	bad = append([]byte(nil), good...)
	bad[40] = 0xff // data length beyond file
	if _, err := wav.Decode(bad); err == nil {
		t.Errorf("oversized data chunk accepted")
	}
	bad = append([]byte(nil), good...)
	bad[22], bad[23] = 0, 0 // zero channels
	if _, err := wav.Decode(bad); err == nil {
		t.Errorf("zero channels accepted")
	}
}

func TestHeaderLayout(t *testing.T) {
	f := &wav.File{SampleRate: 32000, Channels: 32, Samples: make([]int16, 64)}
	b := wav.Encode(f)
	if len(b) != wav.HeaderSize+128 {
		t.Fatalf("encoded size %d", len(b))
	}
	if string(b[0:4]) != "RIFF" || string(b[8:12]) != "WAVE" || string(b[36:40]) != "data" {
		t.Fatalf("header magic broken")
	}
}

func TestQuantize(t *testing.T) {
	cases := map[float64]int16{
		0:      0,
		0.5:    16384, // round(0.5*32767) = 16384 (16383.5 rounds half away)
		1.0:    32767,
		2.0:    32767, // clamp
		-1.0:   -32767,
		-2.0:   -32768, // clamp
		-1.001: -32768,
	}
	for in, want := range cases {
		if got := wav.Quantize(in); got != want {
			t.Errorf("Quantize(%g) = %d, want %d", in, got, want)
		}
	}
}

func TestChannelsAndFrames(t *testing.T) {
	f := &wav.File{SampleRate: 8000, Channels: 2, Samples: []int16{100, -100, 200, -200}}
	if f.Frames() != 2 {
		t.Fatalf("frames = %d", f.Frames())
	}
	if (&wav.File{}).Frames() != 0 {
		t.Fatal("a file with no channels has frames")
	}
}

func TestSynthDeterministicAndBounded(t *testing.T) {
	a := wav.Synth(16000, 4096)
	b := wav.Synth(16000, 4096)
	if len(a.Samples) != 4096 {
		t.Fatalf("length %d", len(a.Samples))
	}
	for i := range a.Samples {
		if a.Samples[i] != b.Samples[i] {
			t.Fatalf("Synth not deterministic at %d", i)
		}
	}
	nonzero := 0
	for _, s := range a.Samples {
		if s != 0 {
			nonzero++
		}
	}
	if nonzero < len(a.Samples)/2 {
		t.Fatalf("synth signal mostly silent (%d nonzero)", nonzero)
	}
}

func TestFromFloats(t *testing.T) {
	f := wav.FromFloats(8000, 1, []float64{0, 0.25, -0.25, 3.0})
	want := []int16{0, 8192, -8192, 32767}
	for i := range want {
		if f.Samples[i] != want[i] {
			t.Errorf("sample %d = %d, want %d", i, f.Samples[i], want[i])
		}
	}
}
