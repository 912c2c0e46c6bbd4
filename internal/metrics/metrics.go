// Package metrics is the one Prometheus text-format implementation the
// services share: counters, gauges and fixed-bucket histograms, plain
// or labelled; families whose values another package owns, read once
// per scrape; one renderer and one parser. Values are int64 fixed-point
// numbers, so counters update with one atomic add and sums are exact.
package metrics

import (
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry holds metric families in registration order, which is the
// render order. S is the per-scrape snapshot Render passes to the func
// families: the caller reads values other packages own once into it.
// Register every family before the first Render.
type Registry[S any] struct {
	fams     *[]family[S]
	decimals int
}

type family[S any] struct {
	name, help, typ string
	write           func(w *strings.Builder, s S)
}

// NewRegistry returns an empty registry whose families hold integers.
func NewRegistry[S any]() *Registry[S] {
	return &Registry[S]{fams: new([]family[S])}
}

// Fixed returns a view of r whose families hold fixed-point values with
// d decimal places: a stored 1500 renders as 1.500 when d is 3. With d
// = 9 a time.Duration is stored as is and renders in seconds.
func (r *Registry[S]) Fixed(d int) *Registry[S] {
	return &Registry[S]{fams: r.fams, decimals: d}
}

func (r *Registry[S]) add(name, help, typ string, write func(w *strings.Builder, s S)) {
	*r.fams = append(*r.fams, family[S]{name, help, typ, write})
}

// Render writes the text exposition of every family, reading func
// families from s.
func (r *Registry[S]) Render(s S) string {
	var w strings.Builder
	for _, f := range *r.fams {
		fmt.Fprintf(&w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ)
		f.write(&w, s)
	}
	return w.String()
}

// Counter is a monotonically increasing value.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n, which must not be negative.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Load reads the value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is a value that goes up and down.
type Gauge struct{ v atomic.Int64 }

// Add adds n and returns the new value.
func (g *Gauge) Add(n int64) int64 { return g.v.Add(n) }

// Load reads the value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// Histogram counts observations into fixed buckets. One mutex covers
// the buckets, the sum and the count, so a render never sees them
// disagree.
type Histogram struct {
	bounds []int64 // shared with the family; read-only
	mu     sync.Mutex
	counts []int64 // per bucket, not cumulative; the last is +Inf
	sum    int64
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	i := sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })
	h.mu.Lock()
	h.counts[i]++
	h.sum += v
	h.mu.Unlock()
}

// Vec is a family of series of T told apart by label values. Lookups
// of existing series take no lock.
type Vec[T any] struct {
	labels []string
	fresh  func() *T
	series sync.Map // label values joined by \xff -> *series[T]
}

// CounterVec is a labelled counter family.
type CounterVec = Vec[Counter]

// GaugeVec is a labelled gauge family.
type GaugeVec = Vec[Gauge]

// HistogramVec is a labelled histogram family.
type HistogramVec = Vec[Histogram]

type series[T any] struct {
	values []string
	v      *T
}

// With returns the series for the label values, in the order the
// labels were registered, creating it at zero on first use. A family
// registered without labels has one series, With().
func (v *Vec[T]) With(values ...string) *T {
	if len(values) != len(v.labels) {
		panic(fmt.Sprintf("metrics: %d label values for labels %q", len(values), v.labels))
	}
	key := strings.Join(values, "\xff")
	if s, ok := v.series.Load(key); ok {
		return s.(*series[T]).v
	}
	s, _ := v.series.LoadOrStore(key, &series[T]{values: slices.Clone(values), v: v.fresh()})
	return s.(*series[T]).v
}

// sorted lists the series ordered by label values.
func (v *Vec[T]) sorted() []*series[T] {
	var out []*series[T]
	v.series.Range(func(_, s any) bool {
		out = append(out, s.(*series[T]))
		return true
	})
	slices.SortFunc(out, func(a, b *series[T]) int { return slices.Compare(a.values, b.values) })
	return out
}

// Counter registers an unlabelled counter.
func (r *Registry[S]) Counter(name, help string) *Counter { return r.CounterVec(name, help).With() }

// Gauge registers an unlabelled gauge.
func (r *Registry[S]) Gauge(name, help string) *Gauge { return r.GaugeVec(name, help).With() }

// CounterVec registers a counter family with the given label names.
func (r *Registry[S]) CounterVec(name, help string, labels ...string) *CounterVec {
	return intVec(r, name, help, "counter", labels, (*Counter).Load)
}

// GaugeVec registers a gauge family with the given label names.
func (r *Registry[S]) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return intVec(r, name, help, "gauge", labels, (*Gauge).Load)
}

func intVec[S, T any](r *Registry[S], name, help, typ string, labels []string, load func(*T) int64) *Vec[T] {
	v := &Vec[T]{labels: labels, fresh: func() *T { return new(T) }}
	r.add(name, help, typ, func(w *strings.Builder, _ S) {
		for _, s := range v.sorted() {
			r.sample(w, name, labels, s.values, load(s.v))
		}
	})
	return v
}

// HistogramVec registers a histogram family. bounds are the buckets'
// upper limits in rendered units, ascending; the +Inf bucket is
// implicit.
func (r *Registry[S]) HistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	scaled := make([]int64, len(bounds))
	les := make([]string, len(bounds), len(bounds)+1)
	for i, b := range bounds {
		scaled[i] = int64(math.Round(b * math.Pow10(r.decimals)))
		les[i] = strconv.FormatFloat(b, 'g', -1, 64)
	}
	les = append(les, "+Inf")
	v := &HistogramVec{labels: labels, fresh: func() *Histogram {
		return &Histogram{bounds: scaled, counts: make([]int64, len(les))}
	}}
	leLabels := append(slices.Clone(labels), "le")
	r.add(name, help, "histogram", func(w *strings.Builder, _ S) {
		for _, s := range v.sorted() {
			s.v.mu.Lock()
			counts, sum := slices.Clone(s.v.counts), s.v.sum
			s.v.mu.Unlock()
			leValues := append(slices.Clone(s.values), "")
			cum := int64(0)
			for i, le := range les {
				cum += counts[i]
				leValues[len(leValues)-1] = le
				writeSample(w, name+"_bucket", leLabels, leValues, strconv.FormatInt(cum, 10))
			}
			r.sample(w, name+"_sum", labels, s.values, sum)
			writeSample(w, name+"_count", labels, s.values, strconv.FormatInt(cum, 10))
		}
	})
	return v
}

// CounterFunc registers a counter whose value f reads from the scrape
// snapshot.
func (r *Registry[S]) CounterFunc(name, help string, f func(S) int64) {
	r.add(name, help, "counter", func(w *strings.Builder, s S) { r.sample(w, name, nil, nil, f(s)) })
}

// GaugeFunc registers a gauge whose value f reads from the scrape
// snapshot.
func (r *Registry[S]) GaugeFunc(name, help string, f func(S) int64) {
	r.add(name, help, "gauge", func(w *strings.Builder, s S) { r.sample(w, name, nil, nil, f(s)) })
}

// GaugeVecFunc registers a gauge family with one label whose series f
// reads from the scrape snapshot, keyed by label value.
func (r *Registry[S]) GaugeVecFunc(name, help, label string, f func(S) map[string]int64) {
	r.add(name, help, "gauge", func(w *strings.Builder, s S) {
		vals := f(s)
		keys := make([]string, 0, len(vals))
		for k := range vals {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			r.sample(w, name, []string{label}, []string{k}, vals[k])
		}
	})
}

// sample writes one series with a value in r's fixed-point scale.
func (r *Registry[S]) sample(w *strings.Builder, name string, labels, values []string, v int64) {
	writeSample(w, name, labels, values, formatFixed(v, r.decimals))
}

func writeSample(w *strings.Builder, name string, labels, values []string, value string) {
	w.WriteString(name)
	sep := "{"
	for i, l := range labels {
		fmt.Fprintf(w, "%s%s=%q", sep, l, values[i])
		sep = ","
	}
	if len(labels) > 0 {
		w.WriteByte('}')
	}
	fmt.Fprintf(w, " %s\n", value)
}

// formatFixed renders v scaled down by 10^d with exactly d decimals.
func formatFixed(v int64, d int) string {
	if d == 0 {
		return strconv.FormatInt(v, 10)
	}
	if v < 0 {
		return "-" + formatFixed(-v, d)
	}
	p := int64(math.Pow10(d))
	return fmt.Sprintf("%d.%0*d", v/p, d, v%p)
}

// Parse reads a text exposition and returns every sample's value keyed
// by its series text as written, such as
// `idemd_http_requests_total{path="/v1/compile",code="200"}`. Comment
// and blank lines are skipped; any other line that is not a series
// followed by one numeric value is an error.
func Parse(r io.Reader) (map[string]float64, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for i, line := range strings.Split(string(b), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || line[0] == '#' {
			continue
		}
		// The value is the last field; label values may hold spaces.
		cut := max(strings.LastIndexAny(line, " \t"), 0)
		series := strings.TrimSpace(line[:cut])
		name, labels, labelled := strings.Cut(series, "{")
		if name == "" || strings.ContainsAny(name, " \t}") || labelled && !strings.HasSuffix(labels, "}") {
			return nil, fmt.Errorf("metrics: line %d: malformed series in %q", i+1, line)
		}
		v, err := strconv.ParseFloat(line[cut+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: line %d: malformed value in %q", i+1, line)
		}
		out[series] = v
	}
	return out, nil
}
