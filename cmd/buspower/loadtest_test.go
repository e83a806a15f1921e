package main

import (
	"slices"
	"testing"
	"time"
)

// msSamples returns one latency sample per argument, in milliseconds.
func msSamples(ms ...int) []time.Duration {
	out := make([]time.Duration, len(ms))
	for i, m := range ms {
		out[i] = time.Duration(m) * time.Millisecond
	}
	return out
}

// hundredSamples is 1ms..100ms in reverse order, so the percentiles
// also prove the samples get sorted.
func hundredSamples() []time.Duration {
	out := make([]time.Duration, 100)
	for i := range out {
		out[i] = time.Duration(100-i) * time.Millisecond
	}
	return out
}

func TestSummarizeLoadtest(t *testing.T) {
	for _, tc := range []struct {
		name             string
		requests, errors uint64
		samples          []time.Duration
		elapsed          time.Duration
		minRPS           float64
		want             loadtestStats
		wantErr          bool
	}{
		{
			name:    "zero samples, no gate",
			elapsed: time.Second,
			want:    loadtestStats{},
		},
		{
			name:    "zero samples fail an enabled gate",
			elapsed: time.Second,
			minRPS:  1,
			want:    loadtestStats{},
			wantErr: true,
		},
		{
			name:     "zero elapsed reports no rate",
			requests: 5,
			samples:  msSamples(1, 1, 1, 1, 1),
			want:     loadtestStats{Requests: 5, LatencyMsP50: 1, LatencyMsP95: 1, LatencyMsP99: 1},
		},
		{
			name:     "one sample is every percentile",
			requests: 1,
			samples:  msSamples(7),
			elapsed:  time.Second,
			want:     loadtestStats{Requests: 1, ReqPerSec: 1, LatencyMsP50: 7, LatencyMsP95: 7, LatencyMsP99: 7},
		},
		{
			name:     "two samples: every percentile is the lower",
			requests: 2,
			samples:  msSamples(9, 3),
			elapsed:  time.Second,
			want:     loadtestStats{Requests: 2, ReqPerSec: 2, LatencyMsP50: 3, LatencyMsP95: 3, LatencyMsP99: 3},
		},
		{
			name:     "hundred samples",
			requests: 100,
			samples:  hundredSamples(),
			elapsed:  2 * time.Second,
			want:     loadtestStats{Requests: 100, ReqPerSec: 50, LatencyMsP50: 50, LatencyMsP95: 95, LatencyMsP99: 99},
		},
		{
			name:     "rps exactly at the floor passes",
			requests: 100,
			samples:  hundredSamples(),
			elapsed:  2 * time.Second,
			minRPS:   50,
			want:     loadtestStats{Requests: 100, ReqPerSec: 50, LatencyMsP50: 50, LatencyMsP95: 95, LatencyMsP99: 99},
		},
		{
			name:     "rps just below the floor fails",
			requests: 100,
			samples:  hundredSamples(),
			elapsed:  2 * time.Second,
			minRPS:   50.01,
			want:     loadtestStats{Requests: 100, ReqPerSec: 50, LatencyMsP50: 50, LatencyMsP95: 95, LatencyMsP99: 99},
			wantErr:  true,
		},
		{
			name:     "any failed request fails the gate even above the floor",
			requests: 100,
			errors:   1,
			samples:  hundredSamples(),
			elapsed:  time.Second,
			minRPS:   50,
			want:     loadtestStats{Requests: 100, Errors: 1, ReqPerSec: 99, LatencyMsP50: 50, LatencyMsP95: 95, LatencyMsP99: 99},
			wantErr:  true,
		},
		{
			name:     "min-rps 0 disables the gate",
			requests: 100,
			errors:   60,
			samples:  hundredSamples(),
			elapsed:  time.Second,
			want:     loadtestStats{Requests: 100, Errors: 60, ReqPerSec: 40, LatencyMsP50: 50, LatencyMsP95: 95, LatencyMsP99: 99},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			in := slices.Clone(tc.samples)
			got, err := summarizeLoadtest(tc.requests, tc.errors, tc.samples, tc.elapsed, tc.minRPS)
			if (err != nil) != tc.wantErr {
				t.Fatalf("err = %v, want error %v", err, tc.wantErr)
			}
			if got != tc.want {
				t.Errorf("stats = %+v, want %+v", got, tc.want)
			}
			if !slices.Equal(tc.samples, in) {
				t.Error("samples were modified")
			}
		})
	}
}
