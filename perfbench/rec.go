package main

import (
	"math"
	"math/rand/v2"
	"sync/atomic"

	"djstar/internal/audio"
	"djstar/internal/graph"
	"djstar/internal/stats"
)

// samples is a fixed-capacity sample buffer for one goroutine. add never
// allocates: samples past the capacity are counted in dropped instead of
// growing the slice, because a growing append triggers garbage
// collections that must stop the spinning busy workers mid-cycle.
type samples struct {
	v       []float64
	dropped int
}

func newSamples(capacity int) *samples { return &samples{v: make([]float64, 0, capacity)} }

func (s *samples) add(x float64) {
	if len(s.v) == cap(s.v) {
		s.dropped++
		return
	}
	s.v = append(s.v, x)
}

func (s *samples) reset() { s.v, s.dropped = s.v[:0], 0 }

// sharedSamples is a fixed-capacity sample buffer written concurrently
// by several goroutines (the fleet's session drivers). Each add claims a
// distinct slot with one atomic increment; readers call values only
// after every writer has stopped.
type sharedSamples struct {
	v  []float64
	n  atomic.Int64
	on atomic.Bool
}

func newSharedSamples(capacity int) *sharedSamples {
	return &sharedSamples{v: make([]float64, capacity)}
}

// add records x while recording is on.
func (s *sharedSamples) add(x float64) {
	if !s.on.Load() {
		return
	}
	i := s.n.Add(1) - 1
	if i < int64(len(s.v)) {
		s.v[i] = x
	}
}

// count is the number of adds while on, including dropped ones.
func (s *sharedSamples) count() int64 { return s.n.Load() }

func (s *sharedSamples) dropped() int64 { return max(0, s.n.Load()-int64(len(s.v))) }

func (s *sharedSamples) values() []float64 {
	return s.v[:min(s.n.Load(), int64(len(s.v)))]
}

// median is the linearly interpolated median (stats.Percentiles; 0 when
// empty).
func median(xs []float64) float64 { return stats.Percentiles(xs, 0.5)[0] }

// fnvOffset and fnvPrime are the 64-bit FNV-1a parameters.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// hashStereo hashes one output packet bit-exactly (FNV-1a over the
// float64 bits of L then R). It does not allocate.
func hashStereo(s audio.Stereo) uint64 {
	h := fnvOffset
	for _, v := range s.L {
		h = (h ^ math.Float64bits(v)) * fnvPrime
	}
	for _, v := range s.R {
		h = (h ^ math.Float64bits(v)) * fnvPrime
	}
	return h
}

// deckInput is one deck's seeded playback setting.
type deckInput struct {
	Tempo    float64 // playback rate, 0.94..1.06
	StartPos float64 // start position as a fraction of the track
}

// deckInputs derives every deck's tempo and start position from the seed.
func deckInputs(seed uint64, decks int) []deckInput {
	rng := rand.New(rand.NewPCG(seed, 0x6465636b73))
	in := make([]deckInput, decks)
	for d := range in {
		in[d] = deckInput{Tempo: 0.94 + 0.12*rng.Float64(), StartPos: rng.Float64()}
	}
	return in
}

// applyDeckInputs sets the seeded tempos and start positions on a freshly
// built session, before its first cycle.
func applyDeckInputs(s *graph.Session, in []deckInput) {
	for d, dk := range s.Decks {
		dk.SetTempo(in[d].Tempo)
		dk.Seek(in[d].StartPos * float64(dk.Track().Len()))
	}
}
