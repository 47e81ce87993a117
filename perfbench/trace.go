package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"time"
)

// span is one timed call into a layer's public function. Spans of one
// workload invocation share inv; parent indexes the enclosing span (-1 for
// the invocation itself).
type span struct {
	name       string
	start, end time.Time
	parent     int
	inv        int
}

// recorder keeps spans in memory; writeChrome dumps them at the end.
type recorder struct {
	spans []span
	open  []int
	inv   int
}

func (r *recorder) begin(name string) int {
	parent := -1
	if len(r.open) > 0 {
		parent = r.open[len(r.open)-1]
	}
	r.spans = append(r.spans, span{name: name, start: time.Now(), parent: parent, inv: r.inv})
	id := len(r.spans) - 1
	r.open = append(r.open, id)
	return id
}

// end closes span id, which must be the innermost open span, and returns
// its duration.
func (r *recorder) end(id int) time.Duration {
	if len(r.open) == 0 || r.open[len(r.open)-1] != id {
		panic("perfbench: spans closed out of order")
	}
	r.open = r.open[:len(r.open)-1]
	s := &r.spans[id]
	s.end = time.Now()
	return s.end.Sub(s.start)
}

// time runs fn inside a span and returns its duration.
func (r *recorder) time(name string, fn func()) time.Duration {
	id := r.begin(name)
	fn()
	return r.end(id)
}

// writeChrome writes the spans as Chrome trace-event JSON (load it in
// chrome://tracing or ui.perfetto.dev). One track per invocation.
func (r *recorder) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	if len(r.spans) == 0 {
		return nil
	}
	t0 := r.spans[0].start
	events := make([]event, len(r.spans))
	for i, s := range r.spans {
		parent := ""
		if s.parent >= 0 {
			parent = r.spans[s.parent].name
		}
		events[i] = event{
			Name: s.name, Ph: "X",
			Ts:  float64(s.start.Sub(t0).Nanoseconds()) / 1e3,
			Dur: float64(s.end.Sub(s.start).Nanoseconds()) / 1e3,
			Pid: 1, Tid: s.inv,
			Args: map[string]any{"id": i, "parent": s.parent, "parent_name": parent, "invocation": s.inv},
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// bucketProfiles merges CPU profiles with `go tool pprof -traces` and
// charges every sample to one host module (see moduleOf). It returns
// seconds per module and the share of samples no rule could attribute.
func bucketProfiles(paths []string) (map[string]float64, float64, error) {
	cmd := exec.Command("go", append([]string{"tool", "pprof", "-traces"}, paths...)...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, 0, fmt.Errorf("go tool pprof: %v: %s", err, stderr.String())
	}
	buckets := map[string]float64{}
	var total, lost float64
	flush := func(v float64, stack []string) {
		if v == 0 {
			return
		}
		total += v
		if m := moduleOf(stack); m != "" {
			buckets[m] += v
		} else {
			lost += v
		}
	}
	var v float64
	var stack []string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush(v, stack)
			v, stack = 0, stack[:0]
			continue
		}
		f := strings.Fields(line)
		if len(f) == 0 || !strings.HasPrefix(line, " ") {
			continue // header lines
		}
		if len(stack) == 0 && v == 0 {
			d, err := time.ParseDuration(f[0])
			if err != nil {
				continue // a label line before the stack
			}
			v = d.Seconds()
			f = f[1:]
		}
		if len(f) > 0 {
			stack = append(stack, f[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, 0, err
	}
	flush(v, stack)
	if total == 0 {
		return buckets, 0, nil
	}
	return buckets, lost / total, nil
}

// moduleOf attributes one sample, whose stack is listed leaf first:
//
//   - garbage-collector work anywhere on the stack goes to gc;
//   - otherwise the innermost repo frame takes the sample, runtime frames
//     below it included; channel, park and scheduler frames below a sim
//     frame are the coroutine handoff between Procs and go to handoff;
//   - scheduler stacks with no frame of their own (the g0 side of a
//     goroutine switch) also go to handoff;
//   - anything else is unattributed ("").
func moduleOf(stack []string) string {
	for _, fn := range stack {
		if isGC(fn) {
			return "gc"
		}
	}
	sched := false
	for _, fn := range stack {
		if pkg, ok := repoPackage(fn); ok {
			if pkg == "internal/sim" && sched {
				return "handoff"
			}
			return module(pkg)
		}
		if isSched(fn) {
			sched = true
		}
	}
	if sched {
		return "handoff"
	}
	return ""
}

// repoPackage reports the repo-relative package of a profiled function:
// "internal/sim" for activesan/internal/sim.(*Proc).block, "" for the
// root package, "main" for this benchmark.
func repoPackage(fn string) (string, bool) {
	if strings.HasPrefix(fn, "main.") {
		return "main", true
	}
	if !strings.HasPrefix(fn, "activesan") {
		return "", false
	}
	rest := fn[len("activesan"):]
	if strings.HasPrefix(rest, ".") {
		return "", true
	}
	if !strings.HasPrefix(rest, "/") {
		return "", false
	}
	rest = rest[1:]
	slash := strings.LastIndex(rest, "/")
	dot := strings.Index(rest[slash+1:], ".")
	if dot < 0 {
		return rest, true
	}
	return rest[:slash+1+dot], true
}

// module maps a repo package to its host bucket.
func module(pkg string) string {
	switch {
	case strings.HasPrefix(pkg, "internal/apps"):
		return "apps"
	case pkg == "", pkg == "internal/report", pkg == "internal/plot", pkg == "internal/stats":
		return "report"
	}
	switch name := strings.TrimPrefix(pkg, "internal/"); name {
	case "sim", "san", "nic", "aswitch", "cpu", "cache", "memsys", "iodev", "cluster", "metrics", "host":
		return name
	}
	return "other"
}

func isGC(fn string) bool {
	for _, p := range []string{
		"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot",
		"runtime.scanobject", "runtime.scanstack", "runtime.sweepone", "runtime.wbBuf",
		"runtime.(*gcWork)", "runtime.(*mheap).reclaim", "runtime.(*sweepLocked)",
	} {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

func isSched(fn string) bool {
	for _, p := range []string{
		"runtime.chan", "runtime.send", "runtime.recv", "runtime.gopark", "runtime.goready",
		"runtime.ready", "runtime.park_m", "runtime.mcall", "runtime.schedule", "runtime.findRunnable",
		"runtime.execute", "runtime.wakep", "runtime.runqget", "runtime.runqput", "runtime.runqsteal",
		"runtime.stealWork", "runtime.futex", "runtime.notewakeup", "runtime.notesleep",
		"runtime.startm", "runtime.stopm", "runtime.gogo", "runtime.goexit",
		"runtime.newproc", "runtime.selectgo", "runtime.acquireSudog", "runtime.releaseSudog",
	} {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}
