package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"fidelius"
)

// span is one benchmark-side call into the program: a boot or work
// phase, or a public entry point called inside one. Times are host
// nanoseconds since the run started.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	Round    int    `json:"round"`
	Lifetime int    `json:"lifetime"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
}

// recorder keeps every span of a run in memory. The two ends of a live
// migration record from different goroutines, hence the lock.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its ID.
func (r *recorder) begin(name string, parent, round, lifetime int) int {
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name,
		Round: round, Lifetime: lifetime, Start: now})
	return id
}

// end closes span id.
func (r *recorder) end(id int) {
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// spanKey names one occurrence of a span within a round: the lifetime
// it belongs to and how many same-named spans that lifetime opened
// before it. Every round opens the same keys.
type spanKey struct{ lifetime, occurrence int }

// seconds returns the host seconds of every span of one round, by name
// and key.
func (r *recorder) seconds(round int) map[string]map[spanKey]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]map[spanKey]float64)
	seen := make(map[string]map[int]int) // name -> lifetime -> spans so far
	for _, s := range r.spans {
		if s.Round != round {
			continue
		}
		if out[s.Name] == nil {
			out[s.Name] = make(map[spanKey]float64)
			seen[s.Name] = make(map[int]int)
		}
		k := spanKey{s.Lifetime, seen[s.Name][s.Lifetime]}
		seen[s.Name][s.Lifetime]++
		out[s.Name][k] = float64(s.End-s.Start) / 1e9
	}
	return out
}

// write stores every span as a JSON array in file.
func (r *recorder) write(file string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(file), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(file, data, 0o644)
}

// waitConn is a migration channel endpoint that adds the host time its
// caller spends blocked in Send and Recv to wait.
type waitConn struct {
	fidelius.MigrateConn
	wait *atomic.Int64
}

func (c waitConn) Send(f *fidelius.MigrateFrame) error {
	t := time.Now()
	err := c.MigrateConn.Send(f)
	c.wait.Add(int64(time.Since(t)))
	return err
}

func (c waitConn) Recv(timeout time.Duration) (*fidelius.MigrateFrame, error) {
	t := time.Now()
	f, err := c.MigrateConn.Recv(timeout)
	c.wait.Add(int64(time.Since(t)))
	return f, err
}
