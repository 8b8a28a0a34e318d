package core

import (
	"fmt"
	"math/rand"
	"testing"

	"stsmatch/internal/store"
)

// breathingDB builds a database of `streams` regular breathing streams
// (two sessions per patient) with jittered amplitudes and durations.
func breathingDB(t *testing.T, streams int, indexed bool) *store.DB {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(streams)))
	db := store.NewDB()
	var pat *store.Patient
	for i := 0; i < streams; i++ {
		if i%2 == 0 {
			var err error
			if pat, err = db.AddPatient(store.PatientInfo{ID: fmt.Sprintf("P%03d", i/2)}); err != nil {
				t.Fatal(err)
			}
		}
		durs := make([]float64, 60)
		for j := range durs {
			durs[j] = 0.5 + rng.Float64()
		}
		if err := pat.AddStream(fmt.Sprintf("S%d", i%2)).Append(breathingWindow(0, 8+4*rng.Float64(), durs)...); err != nil {
			t.Fatal(err)
		}
	}
	if indexed {
		db.EnableIndexes()
	}
	return db
}

// TestSearchAllocsIndependentOfDBSize is the funnel's allocation
// ceiling: once a matcher's scratch is warm, a top-k search allocates
// the same number of objects whether it scans 8 streams or 64, so
// nothing in the per-stream or per-candidate path allocates.
func TestSearchAllocsIndependentOfDBSize(t *testing.T) {
	for _, indexed := range []bool{false, true} {
		allocs := map[string][]float64{}
		for _, size := range []int{8, 64} {
			db := breathingDB(t, size, indexed)
			p := DefaultParams()
			p.Parallelism = 1
			m, err := NewMatcher(db, p)
			if err != nil {
				t.Fatal(err)
			}
			src := db.Patient("P000").StreamBySession("S0")
			seq := src.Seq()
			q := NewQuery(seq[len(seq)-10:], src.PatientID, src.SessionID)
			for name, search := range map[string]func() ([]Match, error){
				"TopK":            func() ([]Match, error) { return m.TopK(q, 10, nil) },
				"FindSimilarTopK": func() ([]Match, error) { return m.FindSimilarTopK(q, 10, nil) },
			} {
				got, err := search() // warm the matcher's scratch
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != 10 {
					t.Fatalf("%s over %d streams returned %d matches, want a full top 10", name, size, len(got))
				}
				allocs[name] = append(allocs[name], testing.AllocsPerRun(20, func() { _, _ = search() }))
			}
		}
		for name, a := range allocs {
			if a[0] != a[1] {
				t.Errorf("indexed=%v: warm %s allocates %v objects over 8 streams but %v over 64", indexed, name, a[0], a[1])
			}
		}
	}
}

// TestPredictDisplacementAllocsIndependentOfMatches: prediction
// interpolates into buffers allocated once per call, so its allocation
// count does not grow with the number of matches.
func TestPredictDisplacementAllocsIndependentOfMatches(t *testing.T) {
	db := breathingDB(t, 64, false)
	m, err := NewMatcher(db, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	src := db.Patient("P000").StreamBySession("S0")
	seq := src.Seq()
	q := NewQuery(seq[len(seq)-10:], src.PatientID, src.SessionID)
	matches, err := m.TopK(q, 500, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 500 {
		t.Fatalf("TopK returned %d matches, want 500", len(matches))
	}
	var counts []float64
	for _, n := range []int{5, 500} {
		if _, err := m.PredictDisplacement(q, matches[:n], 0.1, 0.3, 0); err != nil {
			t.Fatal(err)
		}
		counts = append(counts, testing.AllocsPerRun(20, func() {
			_, _ = m.PredictDisplacement(q, matches[:n], 0.1, 0.3, 0)
		}))
	}
	if counts[0] != counts[1] {
		t.Errorf("PredictDisplacement allocates %v objects for 5 matches but %v for 500", counts[0], counts[1])
	}
}
