package serve

import (
	"strings"
	"testing"
)

func TestMetricWriterExposition(t *testing.T) {
	var sb strings.Builder
	mw := NewMetricWriter(&sb)
	mw.Counter("demo_total", "A demo counter.")
	mw.Sample("demo_total", nil, 3)
	mw.Gauge("demo_value", "A demo gauge.")
	mw.Sample("demo_value", Labels{{"tenant", "gold"}, {"quantile", "0.99"}}, 12.5)
	mw.Sample("demo_value", Labels{{"tenant", `we"ird\te` + "\nnant"}}, 0)
	if err := mw.Err(); err != nil {
		t.Fatal(err)
	}
	want := `# HELP demo_total A demo counter.
# TYPE demo_total counter
demo_total 3
# HELP demo_value A demo gauge.
# TYPE demo_value gauge
demo_value{tenant="gold",quantile="0.99"} 12.5
demo_value{tenant="we\"ird\\te\nnant"} 0
`
	if sb.String() != want {
		t.Fatalf("exposition mismatch:\ngot:\n%s\nwant:\n%s", sb.String(), want)
	}
}
