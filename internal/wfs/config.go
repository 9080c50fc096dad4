// Package wfs implements the case-study workload: a self-contained Wave
// Field Synthesis audio application in the spirit of the hArtes wfs
// program the paper profiles, written as a *guest program* — every kernel
// is compiled to guest machine code (package hl) and runs on the virtual
// machine, so the profilers observe it exactly as Pin observed the
// original x86 binary.
//
// The kernel inventory mirrors the paper's Table I/II: wav_load,
// wav_store, fft1d (in-place radix-2 Danielson–Lanczos), bitrev, perm,
// cadd, cmult, zeroRealVec, zeroCplxVec, r2c, c2r, ffw,
// DelayLine_processChunk, Filter_process, Filter_process_pre_,
// AudioIo_getFrames, AudioIo_setFrames, vsmult2d, calculateGainPQ,
// PrimarySource_deriveTP, ldint — plus initialisation helpers and the
// guest libc.  The program structure reproduces the paper's five phases:
// initialization (ffw/ldint), wave load (wav_load), wave propagation
// (trajectory/gain kernels warm-up), WFS main processing (the frame
// loop), and wave save (a single trailing wav_store call that owns
// roughly half of the execution span).
package wfs

import "fmt"

// Config sizes the scenario.  All values are baked into the generated
// guest code as immediates, the way a -DN=... build would.
type Config struct {
	Frames     int // number of processed audio frames
	FrameSize  int // samples per frame (N)
	FFTSize    int // FFT length (must be 2*FrameSize, power of two)
	Speakers   int // secondary sources (loudspeakers)
	SampleRate int
	RingSize   int // delay-line ring buffer length (power of two, > max delay + N)
	TrajPeriod int // frames between trajectory updates

	// InputFile / OutputFile are the simulated-filesystem names.
	InputFile  string
	OutputFile string
}

// Small is the fast configuration used by unit tests.
func Small() Config {
	return Config{
		Frames:     12,
		FrameSize:  128,
		FFTSize:    256,
		Speakers:   16,
		SampleRate: 16000,
		RingSize:   4096,
		TrajPeriod: 2,
		InputFile:  "input.wav",
		OutputFile: "output.wav",
	}
}

// Study is the case-study configuration used for the paper experiments
// (one primary wavefront source and thirty-two secondary sources, as in
// Section V).
func Study() Config {
	return Config{
		Frames:     48,
		FrameSize:  256,
		FFTSize:    512,
		Speakers:   32,
		SampleRate: 32000,
		RingSize:   8192,
		TrajPeriod: 2,
		InputFile:  "input.wav",
		OutputFile: "output.wav",
	}
}

// ConfigByName resolves a configuration name, as the command-line
// tools and job specs spell it: "small" or "study".
func ConfigByName(name string) (Config, error) {
	switch name {
	case "small":
		return Small(), nil
	case "study":
		return Study(), nil
	}
	return Config{}, fmt.Errorf("unknown config %q (want small or study)", name)
}

// Validate checks structural invariants the generated code relies on.
func (c Config) Validate() error {
	switch {
	case c.Frames <= 0 || c.FrameSize <= 0 || c.Speakers <= 0:
		return fmt.Errorf("wfs: non-positive dimensions: %+v", c)
	case c.FFTSize != 2*c.FrameSize:
		return fmt.Errorf("wfs: FFTSize (%d) must be 2*FrameSize (%d)", c.FFTSize, c.FrameSize)
	case c.FFTSize&(c.FFTSize-1) != 0:
		return fmt.Errorf("wfs: FFTSize %d not a power of two", c.FFTSize)
	case c.RingSize&(c.RingSize-1) != 0:
		return fmt.Errorf("wfs: RingSize %d not a power of two", c.RingSize)
	case c.RingSize < 4*c.FrameSize:
		return fmt.Errorf("wfs: RingSize %d too small for FrameSize %d", c.RingSize, c.FrameSize)
	case c.TrajPeriod <= 0:
		return fmt.Errorf("wfs: TrajPeriod must be positive")
	case c.InputFile == "" || c.OutputFile == "":
		return fmt.Errorf("wfs: input/output file names required")
	}
	return nil
}

// TotalInputSamples returns the number of mono input samples the program
// consumes.
func (c Config) TotalInputSamples() int { return c.Frames * c.FrameSize }

// TotalOutputSamples returns the number of interleaved output samples
// (frames × frame size × speakers).
func (c Config) TotalOutputSamples() int { return c.Frames * c.FrameSize * c.Speakers }

// FFTBits returns log2(FFTSize).
func (c Config) FFTBits() int {
	b := 0
	for 1<<b < c.FFTSize {
		b++
	}
	return b
}

// Physical model constants shared by the guest code and the host
// reference implementation (package dsp).
const (
	// SpeakerSpacing is the distance between adjacent speakers (metres).
	SpeakerSpacing = 0.5
	// SourceRadius is the radius of the primary source's circular
	// trajectory (metres).
	SourceRadius = 3.0
	// SourceDistance is the trajectory centre's distance from the
	// speaker array (metres).
	SourceDistance = 5.0
	// SoundSpeed is the propagation speed (metres/second).
	SoundSpeed = 343.0
	// RefDistance regularises the gain law q0/(d0+d).
	RefDistance = 1.0
	// GainQ is the gain-law numerator.
	GainQ = 2.0
	// MasterVolume scales every speaker gain (applied via vsmult2d).
	MasterVolume = 0.7
	// SmoothAlpha is the spectral smoothing coefficient of
	// Filter_process (the per-bin cadd state).
	SmoothAlpha = 0.15
	// FilterCutoff is the main filter's normalised cutoff (fraction of
	// Nyquist).
	FilterCutoff = 0.35
	// FilterTaps is the main filter's windowed-sinc length.
	FilterTaps = 31
	// PreTaps is the pre-emphasis FIR length (Filter_process_pre_).
	PreTaps = 8
	// FfwPasses is the number of spectral refinement passes inside ffw.
	FfwPasses = 2
	// TrajSubstepFactor scales PrimarySource_deriveTP's Euler substeps
	// (substeps = FrameSize * factor).
	TrajSubstepFactor = 8
	// PathSteps is calculateGainPQ's attenuation path-integration depth.
	PathSteps = 24
	// NoiseShapeTaps is wav_store's error-feedback depth.
	NoiseShapeTaps = 2
	// StoreChunk is wav_store's staging-buffer size in samples.
	StoreChunk = 256
	// LoadChunk is wav_load's staging-buffer size in bytes.
	LoadChunk = 2048
)
