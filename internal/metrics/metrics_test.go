package metrics

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestParse(t *testing.T) {
	long := strings.Repeat("x", 70<<10)
	for _, tc := range []struct {
		name, text string
		want       map[string]float64
		err        bool
	}{
		{name: "comments and blanks skipped", text: "# HELP a_total A.\n# TYPE a_total counter\n\na_total 3\n",
			want: map[string]float64{"a_total": 3}},
		{name: "labelled series", text: `req_total{path="/v1/compile",code="200"} 7` + "\n",
			want: map[string]float64{`req_total{path="/v1/compile",code="200"}`: 7}},
		{name: "inf bucket", text: `lat_bucket{path="/p",le="+Inf"} 4` + "\n" + `lat_bucket{path="/p",le="0.0005"} 1`,
			want: map[string]float64{`lat_bucket{path="/p",le="+Inf"}`: 4, `lat_bucket{path="/p",le="0.0005"}`: 1}},
		{name: "float value", text: "lat_sum 0.259300000\nup 12.345\n",
			want: map[string]float64{"lat_sum": 0.2593, "up": 12.345}},
		{name: "quoted braces and spaces", text: `odd{v="a} b\"c"} 2`,
			want: map[string]float64{`odd{v="a} b\"c"}`: 2}},
		{name: "line past 64 KiB", text: `big{v="` + long + `"} 5` + "\n",
			want: map[string]float64{`big{v="` + long + `"}`: 5}},
		{name: "malformed value", text: "a_total 3\nb_total 12x\n", err: true},
		{name: "missing value", text: "a_total\n", err: true},
		{name: "two values", text: "a_total 1 2\n", err: true},
		{name: "unterminated labels", text: `a_total{path="/x" 1` + "\n", err: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := Parse(strings.NewReader(tc.text))
			if tc.err {
				if err == nil {
					t.Fatalf("Parse succeeded with %v, want an error", got)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(tc.want) {
				t.Fatalf("got %d samples %v, want %v", len(got), got, tc.want)
			}
			for k, v := range tc.want {
				if g, ok := got[k]; !ok || g != v {
					t.Errorf("%.40s: got %v (present %v), want %v", k, g, ok, v)
				}
			}
		})
	}
}

type snap struct{ up int64 }

// TestRenderParseRoundTrip: every rendered sample parses back to its
// value, fixed-point families included.
func TestRenderParseRoundTrip(t *testing.T) {
	r := NewRegistry[snap]()
	c := r.Counter("c_total", "A counter.")
	g := r.Gauge("g", "A gauge.")
	cv := r.CounterVec("cv_total", "Labelled.", "path", "code")
	lat := r.Fixed(9).HistogramVec("lat_seconds", "Latency.", []float64{0.001, 0.5}, "path")
	r.Fixed(3).GaugeFunc("up_seconds", "Uptime.", func(s snap) int64 { return s.up })
	r.GaugeVecFunc("h", "Health.", "backend", func(snap) map[string]int64 { return map[string]int64{"b": 0, "a": 1} })

	c.Add(5)
	g.Add(-2)
	cv.With("/x", "200").Inc()
	cv.With("/a b", "503").Add(3)
	lat.With("/x").Observe(int64(700 * time.Microsecond))
	lat.With("/x").Observe(int64(2 * time.Second))
	text := r.Render(snap{up: 12345})

	got, err := Parse(strings.NewReader(text))
	if err != nil {
		t.Fatalf("%v\n%s", err, text)
	}
	want := map[string]float64{
		"c_total": 5, "g": -2,
		`cv_total{path="/a b",code="503"}`:         3,
		`cv_total{path="/x",code="200"}`:           1,
		`lat_seconds_bucket{path="/x",le="0.001"}`: 1,
		`lat_seconds_bucket{path="/x",le="0.5"}`:   1,
		`lat_seconds_bucket{path="/x",le="+Inf"}`:  2,
		`lat_seconds_sum{path="/x"}`:               2.0007,
		`lat_seconds_count{path="/x"}`:             2,
		"up_seconds":                               12.345,
		`h{backend="a"}`:                           1,
		`h{backend="b"}`:                           0,
	}
	if len(got) != len(want) {
		t.Errorf("got %d samples, want %d:\n%s", len(got), len(want), text)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s = %v, want %v", k, got[k], v)
		}
	}
	if !strings.Contains(text, "\nlat_seconds_sum{path=\"/x\"} 2.000700000\n") || !strings.Contains(text, "\nup_seconds 12.345\n") {
		t.Errorf("fixed-point values not rendered with their decimals:\n%s", text)
	}
	if i, j := strings.Index(text, `path="/a b"`), strings.Index(text, `path="/x",code`); i > j {
		t.Errorf("labelled series not sorted by label values:\n%s", text)
	}
}

// TestHistogramScrapeCoherent: renders racing observations never show a
// histogram half-updated: the +Inf bucket equals the count, the
// cumulative buckets never decrease, and a series that only ever sees
// one value has a sum of exactly that value times its count.
func TestHistogramScrapeCoherent(t *testing.T) {
	r := NewRegistry[struct{}]()
	h := r.HistogramVec("h", "Coherence.", []float64{1, 4, 16}).With()
	hv := r.HistogramVec("hv", "Coherence, labelled.", []float64{2, 8}, "k")

	const writers, perWriter = 4, 2000
	hvValue := []int64{1, 5, 9} // one per series, landing in each bucket
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < perWriter; j++ {
				h.Observe(int64(j % 20))
				k := j % 3
				hv.With(fmt.Sprint(k)).Observe(hvValue[k])
			}
		}(i)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()

	check := func(final bool) {
		page, err := Parse(strings.NewReader(r.Render(struct{}{})))
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range []struct {
			prefix, labels string
			les            []string
			value          int64 // the only value observed, or 0
		}{
			{"h", "", []string{"1", "4", "16", "+Inf"}, 0},
			{"hv", `k="0",`, []string{"2", "8", "+Inf"}, hvValue[0]},
			{"hv", `k="1",`, []string{"2", "8", "+Inf"}, hvValue[1]},
			{"hv", `k="2",`, []string{"2", "8", "+Inf"}, hvValue[2]},
		} {
			prev := 0.0
			for _, le := range s.les {
				v := page[fmt.Sprintf(`%s_bucket{%sle="%s"}`, s.prefix, s.labels, le)]
				if v < prev {
					t.Fatalf("%s%s: bucket le=%s = %v below the previous bucket %v", s.prefix, s.labels, le, v, prev)
				}
				prev = v
			}
			suffix := ""
			if s.labels != "" {
				suffix = "{" + strings.TrimSuffix(s.labels, ",") + "}"
			}
			count, sum := page[s.prefix+"_count"+suffix], page[s.prefix+"_sum"+suffix]
			if count != prev {
				t.Fatalf("%s%s: +Inf bucket %v != count %v", s.prefix, suffix, prev, count)
			}
			if s.value != 0 && sum != float64(s.value)*count {
				t.Fatalf("%s%s: sum %v != %d x count %v", s.prefix, suffix, sum, s.value, count)
			}
		}
		if final && page["h_count"] != writers*perWriter {
			t.Fatalf("h_count = %v after all writers, want %d", page["h_count"], writers*perWriter)
		}
	}
	for {
		select {
		case <-done:
			check(true)
			return
		default:
			check(false)
		}
	}
}

func TestFormatFixed(t *testing.T) {
	for _, tc := range []struct {
		v    int64
		d    int
		want string
	}{
		{0, 0, "0"}, {42, 0, "42"}, {-7, 0, "-7"},
		{1234567891, 9, "1.234567891"}, {5250000, 9, "0.005250000"}, {0, 9, "0.000000000"},
		{12345, 3, "12.345"}, {-1500, 3, "-1.500"},
	} {
		if got := formatFixed(tc.v, tc.d); got != tc.want {
			t.Errorf("formatFixed(%d, %d) = %q, want %q", tc.v, tc.d, got, tc.want)
		}
	}
}
