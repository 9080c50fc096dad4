// Package wav implements the RIFF/WAVE PCM16 container on the host side:
// it generates the input files fed to the guest WFS application's
// simulated file system and decodes the multi-channel output the guest's
// wav_store kernel produces, so guest results can be verified against the
// host-side reference DSP.
package wav

import (
	"encoding/binary"
	"fmt"
	"math"
)

// File is a decoded PCM16 WAVE file.
type File struct {
	SampleRate int
	Channels   int
	// Samples holds interleaved PCM16 samples (frame-major: sample i of
	// channel c is Samples[i*Channels+c]).
	Samples []int16
}

// Frames returns the number of sample frames (samples per channel).
func (f *File) Frames() int {
	if f.Channels == 0 {
		return 0
	}
	return len(f.Samples) / f.Channels
}

// HeaderSize is the byte size of the canonical 44-byte PCM WAVE header
// this package reads and writes.
const HeaderSize = 44

// Encode serialises the file into RIFF/WAVE PCM16 bytes.
func Encode(f *File) []byte {
	dataLen := len(f.Samples) * 2
	buf := make([]byte, HeaderSize+dataLen)
	le := binary.LittleEndian
	copy(buf[0:4], "RIFF")
	le.PutUint32(buf[4:], uint32(36+dataLen))
	copy(buf[8:12], "WAVE")
	copy(buf[12:16], "fmt ")
	le.PutUint32(buf[16:], 16) // PCM chunk size
	le.PutUint16(buf[20:], 1)  // PCM format
	le.PutUint16(buf[22:], uint16(f.Channels))
	le.PutUint32(buf[24:], uint32(f.SampleRate))
	le.PutUint32(buf[28:], uint32(f.SampleRate*f.Channels*2)) // byte rate
	le.PutUint16(buf[32:], uint16(f.Channels*2))              // block align
	le.PutUint16(buf[34:], 16)                                // bits per sample
	copy(buf[36:40], "data")
	le.PutUint32(buf[40:], uint32(dataLen))
	for i, s := range f.Samples {
		le.PutUint16(buf[HeaderSize+2*i:], uint16(s))
	}
	return buf
}

// Decode parses RIFF/WAVE PCM16 bytes.
func Decode(b []byte) (*File, error) {
	if len(b) < HeaderSize {
		return nil, fmt.Errorf("wav: too short (%d bytes)", len(b))
	}
	le := binary.LittleEndian
	if string(b[0:4]) != "RIFF" || string(b[8:12]) != "WAVE" || string(b[12:16]) != "fmt " {
		return nil, fmt.Errorf("wav: bad header magic")
	}
	if fmtTag := le.Uint16(b[20:]); fmtTag != 1 {
		return nil, fmt.Errorf("wav: unsupported format tag %d", fmtTag)
	}
	if bits := le.Uint16(b[34:]); bits != 16 {
		return nil, fmt.Errorf("wav: unsupported bit depth %d", bits)
	}
	if string(b[36:40]) != "data" {
		return nil, fmt.Errorf("wav: missing data chunk")
	}
	channels := int(le.Uint16(b[22:]))
	if channels <= 0 {
		return nil, fmt.Errorf("wav: bad channel count %d", channels)
	}
	dataLen := int(le.Uint32(b[40:]))
	if dataLen > len(b)-HeaderSize {
		return nil, fmt.Errorf("wav: data chunk length %d exceeds file", dataLen)
	}
	n := dataLen / 2
	f := &File{
		SampleRate: int(le.Uint32(b[24:])),
		Channels:   channels,
		Samples:    make([]int16, n),
	}
	for i := 0; i < n; i++ {
		f.Samples[i] = int16(le.Uint16(b[HeaderSize+2*i:]))
	}
	return f, nil
}

// FromFloats quantises float64 samples in [-1, 1) to PCM16.
func FromFloats(rate, channels int, x []float64) *File {
	s := make([]int16, len(x))
	for i, v := range x {
		s[i] = Quantize(v)
	}
	return &File{SampleRate: rate, Channels: channels, Samples: s}
}

// Quantize clamps and converts one float sample to PCM16.
func Quantize(v float64) int16 {
	q := math.Round(v * 32767)
	if q > 32767 {
		q = 32767
	}
	if q < -32768 {
		q = -32768
	}
	return int16(q)
}

// Synth deterministically generates a mono test signal: a sum of
// sinusoids with an exponential envelope plus a pseudo-random component
// from a fixed-seed LCG — rich enough to exercise the whole WFS pipeline
// while staying reproducible bit for bit.
func Synth(rate, frames int) *File {
	x := make([]float64, frames)
	state := uint64(0x2545F4914F6CDD1D)
	for i := range x {
		t := float64(i) / float64(rate)
		v := 0.45*math.Sin(2*math.Pi*330*t) +
			0.25*math.Sin(2*math.Pi*880*t+0.7) +
			0.12*math.Sin(2*math.Pi*57*t)
		// Deterministic noise in [-0.05, 0.05).
		state = state*6364136223846793005 + 1442695040888963407
		v += (float64(int64(state>>11))/float64(1<<52) - 1) * 0.05
		// Gentle envelope so frames differ.
		v *= 0.6 + 0.4*math.Sin(2*math.Pi*float64(i)/float64(frames))
		x[i] = v * 0.8
	}
	return FromFloats(rate, 1, x)
}
