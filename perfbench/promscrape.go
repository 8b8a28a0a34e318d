package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// Scrape is one /metrics exposition: every sample keyed by its series,
// the metric name plus its label set ("name" or `name{a="x",b="y"}`).
type Scrape map[string]float64

// ParseScrape reads the Prometheus text exposition format. Comment and
// blank lines are skipped; a malformed sample line is an error.
func ParseScrape(r io.Reader) (Scrape, error) {
	s := Scrape{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		// The value follows the last space; label values may hold spaces.
		i := strings.LastIndexByte(line, ' ')
		if i <= 0 {
			return nil, fmt.Errorf("metrics line %q: no value", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		s[strings.TrimSpace(line[:i])] = v
	}
	return s, sc.Err()
}

// scrapeURL fetches and parses base+"/metrics".
func scrapeURL(c *http.Client, base string) (Scrape, error) {
	resp, err := c.Get(base + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scraping %s: %w", base, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scraping %s: status %d", base, resp.StatusCode)
	}
	return ParseScrape(resp.Body)
}

// Delta returns after minus before for every series in after. A series
// absent before counts from zero (a labelled series appears on first
// use), so counters, histogram buckets, sums and counts all subtract.
func Delta(before, after Scrape) Scrape {
	d := make(Scrape, len(after))
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// Merge adds scrapes series by series (several processes' deltas).
func Merge(ss ...Scrape) Scrape {
	out := Scrape{}
	for _, s := range ss {
		for k, v := range s {
			out[k] += v
		}
	}
	return out
}

// splitSeries splits a series key into its name and label pairs.
func splitSeries(key string) (string, map[string]string) {
	i := strings.IndexByte(key, '{')
	if i < 0 {
		return key, nil
	}
	labels := map[string]string{}
	rest := strings.TrimSuffix(key[i+1:], "}")
	for rest != "" {
		eq := strings.IndexByte(rest, '=')
		if eq < 0 || eq+1 >= len(rest) || rest[eq+1] != '"' {
			break
		}
		name := rest[:eq]
		// Scan the quoted value, honouring backslash escapes.
		j := eq + 2
		for j < len(rest) && rest[j] != '"' {
			if rest[j] == '\\' {
				j++
			}
			j++
		}
		if j >= len(rest) {
			break
		}
		val, err := strconv.Unquote(rest[eq+1 : j+1])
		if err != nil {
			val = rest[eq+2 : j]
		}
		labels[name] = val
		rest = strings.TrimPrefix(rest[j+1:], ",")
	}
	return key[:i], labels
}

// Sum adds every series of the named metric whose labels include all
// of match (nil matches every series).
func (s Scrape) Sum(name string, match map[string]string) float64 {
	var total float64
	for k, v := range s {
		n, labels := splitSeries(k)
		if n != name || !labelsMatch(labels, match) {
			continue
		}
		total += v
	}
	return total
}

func labelsMatch(labels, match map[string]string) bool {
	for k, want := range match {
		if labels[k] != want {
			return false
		}
	}
	return true
}

// HistQuantile estimates the q-th quantile (0 < q < 1) of a histogram
// family from its cumulative _bucket series, summed over the series
// matching match, interpolating linearly inside the bucket that holds
// the rank. It returns the number of observations with the estimate;
// with none it returns (0, 0).
func (s Scrape) HistQuantile(name string, match map[string]string, q float64) (float64, float64) {
	cum := map[float64]float64{}
	for k, v := range s {
		n, labels := splitSeries(k)
		if n != name+"_bucket" || !labelsMatch(labels, match) {
			continue
		}
		le := labels["le"]
		b := math.Inf(1)
		if le != "+Inf" {
			var err error
			if b, err = strconv.ParseFloat(le, 64); err != nil {
				continue
			}
		}
		cum[b] += v
	}
	bounds := make([]float64, 0, len(cum))
	for b := range cum {
		bounds = append(bounds, b)
	}
	sort.Float64s(bounds)
	if len(bounds) == 0 || cum[bounds[len(bounds)-1]] <= 0 {
		return 0, 0
	}
	total := cum[bounds[len(bounds)-1]]
	rank := q * total
	lower, below := 0.0, 0.0
	for _, b := range bounds {
		c := cum[b]
		if c >= rank {
			if math.IsInf(b, 1) {
				return lower, total // rank lies past the last finite bound
			}
			if c == below {
				return b, total
			}
			return lower + (b-lower)*(rank-below)/(c-below), total
		}
		lower, below = b, c
	}
	return lower, total
}
