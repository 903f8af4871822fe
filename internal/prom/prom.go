// Package prom is the one metrics registry behind every /metrics page:
// a series is registered once, by name and with its label values fixed,
// and the Registry renders every registered series in the Prometheus
// text exposition format. Registration checks what a hand-written page
// would have to be reviewed for: the softcache_ namespace, legal names,
// "_total" exactly on counters, and no series registered twice. Only
// registered series render, so a type line always has its samples and
// every counter a request path updates is on the page.
//
// Counter and Gauge are atomics the request path updates with one add
// and no lookup; CounterFunc and GaugeFunc read a value owned elsewhere
// (a cache's statistics, a breaker's state) when the page renders.
package prom

import (
	"fmt"
	"io"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// namespace prefixes every metric name.
const namespace = "softcache_"

// Counter is a monotonically increasing count.
type Counter struct{ v atomic.Uint64 }

// Add increases the count by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load returns the count.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Gauge is a value that goes up and down.
type Gauge struct{ v atomic.Int64 }

// Add moves the value by n and returns the new value.
func (g *Gauge) Add(n int64) int64 { return g.v.Add(n) }

// Load returns the value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// Seconds is a counter of elapsed time, rendered in seconds with
// microsecond resolution.
type Seconds struct{ ns atomic.Int64 }

// Add accumulates d.
func (s *Seconds) Add(d time.Duration) { s.ns.Add(int64(d)) }

// kind is a family's exposition type.
type kind string

const (
	counter kind = "counter"
	gauge   kind = "gauge"
)

var (
	nameRE  = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelRE = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// family is one metric name: its type and its series in registration
// order.
type family struct {
	name   string
	kind   kind
	series []series
}

// series is one sample line: the rendered label set and how to append
// its value.
type series struct {
	labels string
	value  func([]byte) []byte
}

// Registry holds the registered families in registration order. The
// zero value is ready to use.
type Registry struct {
	mu       sync.Mutex
	families []*family // guarded by mu
}

// Counter registers and returns a counter series. labels are name,
// value pairs, fixed for the life of the series.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	c := new(Counter)
	r.CounterFunc(name, c.Load, labels...)
	return c
}

// Gauge registers and returns a gauge series.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	g := new(Gauge)
	r.GaugeFunc(name, g.Load, labels...)
	return g
}

// Seconds registers and returns a counter series of elapsed time.
func (r *Registry) Seconds(name string, labels ...string) *Seconds {
	s := new(Seconds)
	r.register(name, counter, labels, func(b []byte) []byte {
		return strconv.AppendFloat(b, float64(s.ns.Load())/float64(time.Second), 'f', 6, 64)
	})
	return s
}

// CounterFunc registers a counter series whose value f reads at render
// time.
func (r *Registry) CounterFunc(name string, f func() uint64, labels ...string) {
	r.register(name, counter, labels, func(b []byte) []byte { return strconv.AppendUint(b, f(), 10) })
}

// GaugeFunc registers a gauge series whose value f reads at render time.
func (r *Registry) GaugeFunc(name string, f func() int64, labels ...string) {
	r.register(name, gauge, labels, func(b []byte) []byte { return strconv.AppendInt(b, f(), 10) })
}

// register validates one series and appends it to its family. A bad
// registration is a programming error, so it panics.
func (r *Registry) register(name string, k kind, labels []string, value func([]byte) []byte) {
	if !strings.HasPrefix(name, namespace) || !nameRE.MatchString(name) {
		panic(fmt.Sprintf("prom: metric name %q is not a legal name in the %s namespace", name, namespace))
	}
	if total := strings.HasSuffix(name, "_total"); total != (k == counter) {
		panic(fmt.Sprintf("prom: %s %q: counters, and only counters, end in _total", k, name))
	}
	set := renderLabels(name, labels)

	r.mu.Lock()
	defer r.mu.Unlock()
	var fam *family
	for _, f := range r.families {
		if f.name == name {
			fam = f
			break
		}
	}
	if fam == nil {
		fam = &family{name: name, kind: k}
		r.families = append(r.families, fam)
	}
	for _, s := range fam.series {
		if s.labels == set {
			panic(fmt.Sprintf("prom: series %s%s registered twice", name, set))
		}
	}
	fam.series = append(fam.series, series{labels: set, value: value})
}

// renderLabels checks name, value pairs and renders them as the
// exposition's {name="value",...} set, in the order given.
func renderLabels(metric string, labels []string) string {
	if len(labels)%2 != 0 {
		panic(fmt.Sprintf("prom: %s: labels must be name, value pairs", metric))
	}
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i < len(labels); i += 2 {
		if !labelRE.MatchString(labels[i]) {
			panic(fmt.Sprintf("prom: %s: illegal label name %q", metric, labels[i]))
		}
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(labels[i])
		b.WriteString(`="`)
		b.WriteString(labelEscaper.Replace(labels[i+1]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// labelEscaper applies the exposition format's label-value escapes.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// WriteTo renders every family in registration order: one # TYPE line,
// then its samples. The page is built whole, then written at once.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	var b []byte
	r.mu.Lock()
	for _, f := range r.families {
		b = append(b, "# TYPE "...)
		b = append(b, f.name...)
		b = append(b, ' ')
		b = append(b, f.kind...)
		b = append(b, '\n')
		for _, s := range f.series {
			b = append(b, f.name...)
			b = append(b, s.labels...)
			b = append(b, ' ')
			b = s.value(b)
			b = append(b, '\n')
		}
	}
	r.mu.Unlock()
	n, err := w.Write(b)
	return int64(n), err
}

// ServeHTTP serves the rendered page.
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	r.WriteTo(w)
}
