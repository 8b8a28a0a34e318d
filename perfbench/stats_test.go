package main

import "testing"

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so sorting is exercised
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	got, err := Percentile(seq(100), 50)
	if err != nil || got != 50 {
		t.Fatalf("p50 of 1..100 = %v, %v; want 50", got, err)
	}
	got, err = Percentile(seq(1000), 99)
	if err != nil || got != 990 {
		t.Fatalf("p99 of 1..1000 = %v, %v; want 990", got, err)
	}
}

func TestPercentileRefusesThinTail(t *testing.T) {
	// p99 of 1000 samples has exactly 10 beyond it: allowed.
	if _, err := Percentile(seq(1000), 99); err != nil {
		t.Fatalf("p99 of 1000: %v", err)
	}
	// p99 of 999 samples has 9 beyond it: refused.
	if _, err := Percentile(seq(999), 99); err == nil {
		t.Fatal("p99 of 999 samples accepted with 9 beyond it")
	}
	if _, err := Median(seq(19)); err == nil {
		t.Fatal("median of 19 samples accepted with 9 beyond it")
	}
	if _, err := Median(seq(20)); err != nil {
		t.Fatalf("median of 20: %v", err)
	}
	if _, err := Percentile(nil, 50); err == nil {
		t.Fatal("percentile of no samples accepted")
	}
	if _, err := Percentile(seq(100), 100); err == nil {
		t.Fatal("p100 accepted")
	}
}

func TestPercentileLeavesInputUnsorted(t *testing.T) {
	xs := seq(40)
	if _, err := Median(xs); err != nil {
		t.Fatal(err)
	}
	if xs[0] != 40 {
		t.Fatalf("input reordered: xs[0] = %v", xs[0])
	}
}
