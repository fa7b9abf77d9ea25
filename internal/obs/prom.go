package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"regexp"
	"strconv"
	"strings"
)

// Prometheus text exposition (format version 0.0.4) for the registry.
// Output is deterministic: families sort by name, series by label
// signature, and summary quantiles are a fixed grid — so goldens stay
// stable and scrape diffs mean real metric movement.

// summaryQuantiles is the fixed quantile grid every summary exposes.
var summaryQuantiles = []float64{0.5, 0.9, 0.95, 0.99}

// WritePrometheus writes the registry's current state in Prometheus text
// exposition format.
func (r *Registry) WritePrometheus(w io.Writer) error {
	// bufio latches the first write error; the final Flush reports it.
	bw := bufio.NewWriter(w)
	for _, f := range r.snapshot() {
		if f.help != "" {
			_, _ = fmt.Fprintf(bw, "# HELP %s %s\n", f.name, f.help)
		}
		_, _ = fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.kind)
		for _, s := range f.series {
			switch m := s.metric.(type) {
			case *Counter:
				_, _ = fmt.Fprintf(bw, "%s %s\n", seriesName(f.name, s.labels), strconv.FormatUint(m.Value(), 10))
			case *Gauge:
				_, _ = fmt.Fprintf(bw, "%s %s\n", seriesName(f.name, s.labels), promFloat(m.Value()))
			case *Summary:
				for _, q := range summaryQuantiles {
					ql := fmt.Sprintf("quantile=%q", strconv.FormatFloat(q, 'g', -1, 64))
					labels := s.labels
					if labels == "" {
						labels = ql
					} else {
						labels += "," + ql
					}
					_, _ = fmt.Fprintf(bw, "%s %s\n", seriesName(f.name, labels), promFloat(m.Quantile(q)))
				}
				_, _ = fmt.Fprintf(bw, "%s %s\n", seriesName(f.name+"_sum", s.labels), promFloat(m.Sum()))
				_, _ = fmt.Fprintf(bw, "%s %s\n", seriesName(f.name+"_count", s.labels), strconv.FormatUint(m.Count(), 10))
			}
		}
	}
	return bw.Flush()
}

// seriesName joins a family name and a label signature.
func seriesName(name, labels string) string {
	if labels == "" {
		return name
	}
	return name + "{" + labels + "}"
}

// promFloat formats a sample value; Prometheus text accepts +Inf/-Inf/NaN
// spellings for non-finite values.
func promFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

var (
	promHelpRe   = regexp.MustCompile(`^# HELP ([a-zA-Z_:][a-zA-Z0-9_:]*) .+$`)
	promTypeRe   = regexp.MustCompile(`^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge|summary|histogram|untyped)$`)
	promSampleRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^{}]*\})? (\S+)$`)
)

// ValidateProm checks Prometheus text exposition (format 0.0.4): every
// line is a HELP/TYPE comment or a sample, each family is TYPE-declared
// once and before its first sample, every value parses as a float, and
// there is at least one sample.
func ValidateProm(r io.Reader) error {
	typed := map[string]string{} // family -> kind
	samples := 0
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := sc.Text()
		if text == "" {
			continue
		}
		if strings.HasPrefix(text, "#") {
			if promHelpRe.MatchString(text) {
				continue
			}
			if m := promTypeRe.FindStringSubmatch(text); m != nil {
				if _, dup := typed[m[1]]; dup {
					return fmt.Errorf("line %d: duplicate TYPE for %s", line, m[1])
				}
				typed[m[1]] = m[2]
				continue
			}
			return fmt.Errorf("line %d: malformed comment: %s", line, text)
		}
		m := promSampleRe.FindStringSubmatch(text)
		if m == nil {
			return fmt.Errorf("line %d: malformed sample: %s", line, text)
		}
		family := m[1]
		for _, suffix := range []string{"_sum", "_count", "_bucket"} {
			base := strings.TrimSuffix(family, suffix)
			if base != family {
				if k, ok := typed[base]; ok && (k == "summary" || k == "histogram") {
					family = base
				}
				break
			}
		}
		if _, ok := typed[family]; !ok {
			return fmt.Errorf("line %d: sample %s precedes its TYPE declaration", line, m[1])
		}
		if _, err := strconv.ParseFloat(m[3], 64); err != nil {
			return fmt.Errorf("line %d: bad sample value %q", line, m[3])
		}
		samples++
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if samples == 0 {
		return fmt.Errorf("no samples")
	}
	return nil
}
