package main

import (
	"fmt"
	"strconv"
	"strings"
)

// promSample is one line of a Prometheus text exposition.
type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

// parseProm parses the text exposition format the server's /metrics
// emits: comment lines are skipped, every other line is
// `name[{k="v",...}] value`. Malformed lines are errors, so a format
// change surfaces as a failed run rather than as silently zero counters.
func parseProm(text string) ([]promSample, error) {
	var out []promSample
	for n, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("metrics line %d: no value: %q", n+1, line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %w", n+1, err)
		}
		s := promSample{value: v, labels: map[string]string{}}
		head := line[:sp]
		if i := strings.IndexByte(head, '{'); i >= 0 {
			if !strings.HasSuffix(head, "}") {
				return nil, fmt.Errorf("metrics line %d: unterminated labels: %q", n+1, line)
			}
			s.name = head[:i]
			if err := parseLabels(head[i+1:len(head)-1], s.labels); err != nil {
				return nil, fmt.Errorf("metrics line %d: %w", n+1, err)
			}
		} else {
			s.name = head
		}
		out = append(out, s)
	}
	return out, nil
}

// parseLabels reads `k="v",k2="v2"` into dst. Label values are Go-quoted
// by the server (%q), so strconv.Unquote inverts them exactly.
func parseLabels(s string, dst map[string]string) error {
	for s != "" {
		eq := strings.IndexByte(s, '=')
		if eq < 0 || eq+1 >= len(s) || s[eq+1] != '"' {
			return fmt.Errorf("bad label list %q", s)
		}
		key := s[:eq]
		rest := s[eq+1:]
		// Find the closing quote, skipping escaped characters.
		end := 1
		for ; end < len(rest); end++ {
			if rest[end] == '\\' {
				end++
				continue
			}
			if rest[end] == '"' {
				break
			}
		}
		if end >= len(rest) {
			return fmt.Errorf("unterminated label value in %q", s)
		}
		val, err := strconv.Unquote(rest[:end+1])
		if err != nil {
			return fmt.Errorf("label %s: %w", key, err)
		}
		dst[key] = val
		s = strings.TrimPrefix(rest[end+1:], ",")
	}
	return nil
}

// promSum adds up every sample of the named metric whose labels include
// all of match.
func promSum(samples []promSample, name string, match map[string]string) float64 {
	total := 0.0
	for _, s := range samples {
		if s.name != name {
			continue
		}
		ok := true
		for k, v := range match {
			if s.labels[k] != v {
				ok = false
				break
			}
		}
		if ok {
			total += s.value
		}
	}
	return total
}
