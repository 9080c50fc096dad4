package bench

import (
	"math"
	"math/rand/v2"

	"tquad/internal/wav"
)

// Synth generates the guest's mono input signal for a seed.  It is
// wav.Synth with the noise generator's starting state and the three
// sinusoid phases drawn from the seed; seed 0 keeps wav.Synth's
// constants, so it reproduces the golden input bit for bit.  The
// amplitudes are unchanged, so no seed can clip the signal.
func Synth(rate, frames int, seed uint64) *wav.File {
	state := uint64(0x2545F4914F6CDD1D)
	phase := [3]float64{0, 0.7, 0}
	if seed != 0 {
		r := rand.New(rand.NewPCG(seed, 0x7471756164)) // "tquad"
		state = r.Uint64()
		for i := range phase {
			phase[i] = 2 * math.Pi * r.Float64()
		}
	}
	x := make([]float64, frames)
	for i := range x {
		t := float64(i) / float64(rate)
		v := 0.45*math.Sin(2*math.Pi*330*t+phase[0]) +
			0.25*math.Sin(2*math.Pi*880*t+phase[1]) +
			0.12*math.Sin(2*math.Pi*57*t+phase[2])
		state = state*6364136223846793005 + 1442695040888963407
		v += (float64(int64(state>>11))/float64(1<<52) - 1) * 0.05
		v *= 0.6 + 0.4*math.Sin(2*math.Pi*float64(i)/float64(frames))
		x[i] = v * 0.8
	}
	return wav.FromFloats(rate, 1, x)
}
