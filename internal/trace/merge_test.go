package trace

import (
	"context"
	"errors"
	"io"
	"slices"
	"testing"
)

// mergedWords reads a merged source to its end.
func mergedWords(src Source) ([]uint32, error) {
	var out []uint32
	for {
		c, err := src.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, c...)
	}
}

// TestMergeRebuildsTheStream checks that Merge reads a split recording
// back as the original stream, across empty runs and chunk boundaries.
func TestMergeRebuildsTheStream(t *testing.T) {
	for _, n := range []int{0, 1, 100, chunkWords + 1, 3*chunkWords + 5} {
		rec := record(randomRefs(uint64(n), n))
		want, _ := mergedWords(rec.Chunks())
		for seed := uint64(0); seed < 4; seed++ {
			a, b, log := splitRecording(rec, seed)
			got, err := mergedWords(Merge(a, b, log))
			if err != nil || !slices.Equal(got, want) {
				t.Errorf("n=%d seed %d: merged %d refs (err %v), want the %d recorded", n, seed, len(got), err, len(want))
			}
		}
	}
}

// TestMergeRejectsBadLog checks that a log that does not fit its
// recordings is a source error, not a short or reordered stream.
func TestMergeRejectsBadLog(t *testing.T) {
	a, b := record(randomRefs(1, 10)), record(randomRefs(2, 10))
	for name, ends := range map[string][]int{
		"run past its recording": {4, 11},
		"other left unread":      {4},
		"run ends backwards":     {4, 3, 2},
	} {
		src := Merge(a, b, &Switches{ends: ends})
		if _, err := mergedWords(src); !errors.Is(err, errSwitches) {
			t.Errorf("%s: err = %v, want %v", name, err, errSwitches)
		}
		if err := Replay(context.Background(), Merge(a, b, &Switches{ends: ends}), newPairs(t, kernelGeoms[:1]), nil); !errors.Is(err, errSwitches) {
			t.Errorf("%s: replay err = %v, want %v", name, err, errSwitches)
		}
	}
}
