package main

import (
	"math"
	"strings"
	"testing"
)

const scrapeBefore = `# HELP stsmatch_wal_records_total Records appended.
# TYPE stsmatch_wal_records_total counter
stsmatch_wal_records_total 10
stsmatch_http_requests_total{route="match",code="2xx"} 4
stsmatch_http_requests_total{route="ingest_samples",code="2xx"} 7
stsmatch_lock_seconds_bucket{le="0.001"} 2
stsmatch_lock_seconds_bucket{le="0.01"} 3
stsmatch_lock_seconds_bucket{le="+Inf"} 3
stsmatch_lock_seconds_sum 0.004
stsmatch_lock_seconds_count 3
`

const scrapeAfter = `stsmatch_wal_records_total 25
stsmatch_http_requests_total{route="match",code="2xx"} 9
stsmatch_http_requests_total{route="match",code="4xx"} 1
stsmatch_http_requests_total{route="ingest_samples",code="2xx"} 7
stsmatch_gateway_backend_requests_total{backend="http://127.0.0.1:1",outcome="ok"} 3
stsmatch_lock_seconds_bucket{le="0.001"} 2
stsmatch_lock_seconds_bucket{le="0.01"} 13
stsmatch_lock_seconds_bucket{le="+Inf"} 13
stsmatch_lock_seconds_sum 0.054
stsmatch_lock_seconds_count 13
`

func parse(t *testing.T, text string) Scrape {
	t.Helper()
	s, err := ParseScrape(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestDeltaCountersAndLabelledSeries(t *testing.T) {
	d := Delta(parse(t, scrapeBefore), parse(t, scrapeAfter))
	if got := d.Sum("stsmatch_wal_records_total", nil); got != 15 {
		t.Errorf("counter delta = %v, want 15", got)
	}
	if got := d.Sum("stsmatch_http_requests_total", map[string]string{"route": "match"}); got != 6 {
		t.Errorf("labelled match delta = %v, want 6 (5 2xx + a new 4xx series)", got)
	}
	if got := d.Sum("stsmatch_http_requests_total", map[string]string{"route": "match", "code": "2xx"}); got != 5 {
		t.Errorf("match 2xx delta = %v, want 5", got)
	}
	if got := d.Sum("stsmatch_http_requests_total", map[string]string{"route": "ingest_samples"}); got != 0 {
		t.Errorf("unchanged series delta = %v, want 0", got)
	}
	if got := d.Sum("stsmatch_gateway_backend_requests_total", map[string]string{"outcome": "ok"}); got != 3 {
		t.Errorf("label value with punctuation: delta = %v, want 3", got)
	}
}

func TestDeltaHistogramSumCountAndQuantile(t *testing.T) {
	d := Delta(parse(t, scrapeBefore), parse(t, scrapeAfter))
	if got := d.Sum("stsmatch_lock_seconds_sum", nil); !near(got, 0.05) {
		t.Errorf("histogram sum delta = %v, want 0.05", got)
	}
	if got := d.Sum("stsmatch_lock_seconds_count", nil); got != 10 {
		t.Errorf("histogram count delta = %v, want 10", got)
	}
	// All 10 new observations fell in (0.001, 0.01]: the median is the
	// bucket's midpoint under linear interpolation.
	q, n := d.HistQuantile("stsmatch_lock_seconds", nil, 0.5)
	if n != 10 || !near(q, 0.0055) {
		t.Errorf("p50 = %v over %v, want 0.0055 over 10", q, n)
	}
	if _, n := d.HistQuantile("stsmatch_absent_seconds", nil, 0.5); n != 0 {
		t.Errorf("absent histogram has %v observations", n)
	}
}

func TestMergeAddsProcesses(t *testing.T) {
	a := parse(t, scrapeBefore)
	m := Merge(a, a)
	if got := m.Sum("stsmatch_wal_records_total", nil); got != 20 {
		t.Errorf("merged = %v, want 20", got)
	}
}

func TestParseScrapeRejectsGarbage(t *testing.T) {
	if _, err := ParseScrape(strings.NewReader("stsmatch_x notanumber\n")); err == nil {
		t.Fatal("malformed value accepted")
	}
}
