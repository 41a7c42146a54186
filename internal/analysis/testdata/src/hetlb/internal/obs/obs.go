// Package obs is a minimal stand-in for hetlb/internal/obs with the read
// accessors and record methods the statssafety analyzer knows about.
package obs

// Counter mirrors obs.Counter.
type Counter struct{ v int64 }

// Inc records.
func (c *Counter) Inc() { c.v++ }

// Add records.
func (c *Counter) Add(n int64) { c.v += n }

// Value reads.
func (c *Counter) Value() int64 { return c.v }

// Gauge mirrors obs.Gauge.
type Gauge struct{ v int64 }

// Set records.
func (g *Gauge) Set(v int64) { g.v = v }

// SetMax records.
func (g *Gauge) SetMax(v int64) {
	if v > g.v {
		g.v = v
	}
}

// Value reads.
func (g *Gauge) Value() int64 { return g.v }

// Histogram mirrors obs.Histogram.
type Histogram struct {
	n, sum int64
}

// Observe records.
func (h *Histogram) Observe(v int64) { h.n++; h.sum += v }

// Count reads.
func (h *Histogram) Count() int64 { return h.n }

// Sum reads.
func (h *Histogram) Sum() int64 { return h.sum }
