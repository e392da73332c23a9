package synth

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"strings"
	"sync"
	"testing"
)

// deckHash is the FNV-64a hash of a track set: tracks in order, frame by
// frame L then R, each sample as little-endian math.Float64bits.
func deckHash(tracks [4]*Track) string {
	h := fnv.New64a()
	var b [8]byte
	for _, tr := range tracks {
		for i := 0; i < tr.Len(); i++ {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(tr.Audio.L[i]))
			h.Write(b[:])
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(tr.Audio.R[i]))
			h.Write(b[:])
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestStandardDeckTracksGolden pins the rendered deck audio bit for bit, so
// a faster renderer cannot change what the evaluation plays.
func TestStandardDeckTracksGolden(t *testing.T) {
	bpm := [4]float64{126, 128, 124, 127}
	framesPerBar := [4]int{84000, 82688, 85356, 83340}
	for _, tc := range []struct {
		bars int
		hash string
	}{
		{4, "536b9686b69666a8"},
		{16, "aed7e961e0a0da26"},
	} {
		tracks := StandardDeckTracks(tc.bars)
		if got := deckHash(tracks); got != tc.hash {
			t.Errorf("%d bars: hash %s, want %s", tc.bars, got, tc.hash)
		}
		// Two loud bars, then two quiet ones.
		loud := strings.Repeat("LLqq", tc.bars/4)
		for d, tr := range tracks {
			if tr.BPM != bpm[d] || tr.FramesPerBar != framesPerBar[d] {
				t.Errorf("%d bars, deck %d: BPM %v FramesPerBar %d, want %v %d",
					tc.bars, d, tr.BPM, tr.FramesPerBar, bpm[d], framesPerBar[d])
			}
			var got strings.Builder
			for _, l := range tr.LoudBars {
				if l {
					got.WriteByte('L')
				} else {
					got.WriteByte('q')
				}
			}
			if got.String() != loud {
				t.Errorf("%d bars, deck %d: LoudBars %s, want %s", tc.bars, d, got.String(), loud)
			}
		}
	}
}

// TestStandardDeckTracksSharedOnce races first callers: all must get the
// same Tracks, rendered bit for bit as the golden set.
func TestStandardDeckTracksSharedOnce(t *testing.T) {
	const bars = 4
	// Forget any set an earlier test rendered, so these calls are the first.
	deckSetsMu.Lock()
	delete(deckSets, bars)
	deckSetsMu.Unlock()

	var got [8][4]*Track
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g] = StandardDeckTracks(bars)
		}(g)
	}
	wg.Wait()
	for g := range got {
		if got[g] != got[0] {
			t.Fatalf("caller %d got different tracks than caller 0", g)
		}
	}
	if got := deckHash(got[0]); got != "536b9686b69666a8" {
		t.Fatalf("concurrently rendered set: hash %s, want 536b9686b69666a8", got)
	}
}
