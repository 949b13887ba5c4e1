package serve

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// MetricWriter emits the Prometheus text exposition format (version 0.0.4)
// without any client-library dependency: Counter/Gauge write the # HELP
// and # TYPE header for a metric family, Sample writes one sample line
// with optional labels. cimflow-serve's /metrics encodes through it.
//
// Errors are sticky: the first write failure latches and every later call
// is a no-op, so callers check Err once at the end.
type MetricWriter struct {
	w   io.Writer
	err error
}

// Labels is an ordered label set; ordering is the caller's, kept verbatim
// so exposition is deterministic.
type Labels []Label

// Label is one name="value" pair.
type Label struct {
	Name, Value string
}

// NewMetricWriter wraps an io.Writer for exposition.
func NewMetricWriter(w io.Writer) *MetricWriter { return &MetricWriter{w: w} }

// Counter writes a counter family header.
func (m *MetricWriter) Counter(name, help string) { m.header(name, help, "counter") }

// Gauge writes a gauge family header.
func (m *MetricWriter) Gauge(name, help string) { m.header(name, help, "gauge") }

func (m *MetricWriter) header(name, help, typ string) {
	if m.err != nil {
		return
	}
	_, m.err = fmt.Fprintf(m.w, "# HELP %s %s\n# TYPE %s %s\n", name, escapeHelp(help), name, typ)
}

// Sample writes one sample line: name{labels} value.
func (m *MetricWriter) Sample(name string, labels Labels, v float64) {
	if m.err != nil {
		return
	}
	var sb strings.Builder
	sb.WriteString(name)
	if len(labels) > 0 {
		sb.WriteByte('{')
		for i, l := range labels {
			if i > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(l.Name)
			sb.WriteString(`="`)
			sb.WriteString(escapeLabel(l.Value))
			sb.WriteByte('"')
		}
		sb.WriteByte('}')
	}
	sb.WriteByte(' ')
	sb.WriteString(fmtFloat(v))
	sb.WriteByte('\n')
	_, m.err = io.WriteString(m.w, sb.String())
}

// Err returns the first write error, if any.
func (m *MetricWriter) Err() error { return m.err }

// escapeLabel escapes a label value per the exposition format: backslash,
// double-quote and newline.
func escapeLabel(s string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(s)
}

// escapeHelp escapes a help string: backslash and newline.
func escapeHelp(s string) string {
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(s)
}

// fmtFloat renders a sample value the way Prometheus expects.
func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
