package bench

import (
	"reflect"
	"testing"

	"tquad/internal/wav"
	"tquad/internal/wfs"
)

func TestSynthSeedZeroIsTheGoldenInput(t *testing.T) {
	cfg := wfs.Study()
	n := cfg.TotalInputSamples()
	if got, want := Synth(cfg.SampleRate, n, 0), wav.Synth(cfg.SampleRate, n); !reflect.DeepEqual(got, want) {
		t.Fatal("Synth with seed 0 differs from wav.Synth")
	}
}

func TestSynthSeeds(t *testing.T) {
	cfg := wfs.Small()
	n := cfg.TotalInputSamples()
	a, b := Synth(cfg.SampleRate, n, 1), Synth(cfg.SampleRate, n, 1)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("one seed gave two inputs")
	}
	if reflect.DeepEqual(a, Synth(cfg.SampleRate, n, 7)) {
		t.Fatal("seeds 1 and 7 gave the same input")
	}
	for _, s := range a.Samples {
		if s == 32767 || s == -32768 {
			t.Fatal("seeded input clips")
		}
	}
}
