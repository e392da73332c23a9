package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"sort"
	"sync"
	"time"

	"djstar/internal/stats"
)

// op is one scheduled /v1 request of an open-loop schedule.
type op struct {
	Due   time.Duration // offset from the schedule start
	Route string        // create, delete, snapshot, edit, metrics, drain, undrain
	// Target is the session ID (create, delete, snapshot, edit) or the
	// shard ID (drain, undrain).
	Target string
	Patch  string // edit patch spec
	// After is the index of an op that must complete before this one is
	// sent (a delete after its create, an edit after the previous edit
	// of the same session); -1 for none. Waiting for it counts in this
	// op's latency, which runs from Due.
	After int
}

// opResult is one executed op: Latency runs from the due time to the
// response, Late from the due time to the moment the generator handed
// the op to a client connection.
type opResult struct {
	Latency time.Duration
	Late    time.Duration
	Err     error
}

// runOpenLoop sends ops at their due times, regardless of earlier
// responses, over conns client connections, and waits for every op to
// finish. exec performs one request.
func runOpenLoop(ops []op, conns int, exec func(op) error) []opResult {
	res := make([]opResult, len(ops))
	done := make([]chan struct{}, len(ops))
	for i := range done {
		done[i] = make(chan struct{})
	}
	start := time.Now()
	queue := make(chan int, len(ops)) // sized to the number of sends: the generator never blocks
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				o := ops[i]
				if o.After >= 0 {
					<-done[o.After]
				}
				res[i].Err = exec(o)
				res[i].Latency = time.Since(start) - o.Due
				close(done[i])
			}
		}()
	}
	for i, o := range ops {
		if d := o.Due - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		res[i].Late = time.Since(start) - o.Due
		queue <- i
	}
	close(queue)
	wg.Wait()
	return res
}

// routeStats summarizes the results of one route (or of all routes with
// route == "").
type routeStats struct {
	n, failed      int
	p50ms, p95ms   float64
	maxLateMS      float64
	firstErr       error
	latenciesMS    []float64
	generatorLates []float64
}

func summarizeOps(ops []op, res []opResult, route string) routeStats {
	var st routeStats
	for i, o := range ops {
		if route != "" && o.Route != route {
			continue
		}
		st.n++
		if res[i].Err != nil {
			st.failed++
			if st.firstErr == nil {
				st.firstErr = fmt.Errorf("%s %s: %w", o.Route, o.Target, res[i].Err)
			}
		}
		st.latenciesMS = append(st.latenciesMS, res[i].Latency.Seconds()*1e3)
		st.generatorLates = append(st.generatorLates, res[i].Late.Seconds()*1e3)
	}
	p := stats.Percentiles(st.latenciesMS, 0.5, 0.95)
	st.p50ms, st.p95ms = p[0], p[1]
	for _, l := range st.generatorLates {
		st.maxLateMS = math.Max(st.maxLateMS, l)
	}
	return st
}

// jitteredSlots returns n due times spread evenly over the window with
// seeded jitter of ±30% of the spacing, ascending. An even spread keeps
// the offered load equal across seeds; the jitter keeps ops from
// locking to the audio packet clock.
func jitteredSlots(rng *rand.Rand, n int, window time.Duration) []time.Duration {
	step := float64(window) / float64(n)
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(step * (float64(i) + 0.5 + 0.6*(rng.Float64()-0.5)))
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// The fleet-churn mix. There is no recorded control-plane traffic to
// take it from, so the shares below are assumptions, fixed so that
// every seed offers the same load: reads (snapshot GETs, /metrics
// scrapes) outnumber writes, creates stay at about one per second
// because each one builds a graph (over 100 ms of CPU here), and a churned session lives 1–1.5 s so creates and deletes overlap
// live audio. Only the create-then-delete churn itself follows the
// fleet load generator (R8, internal/exp/loadgen.go), which destroys
// and creates sessions at every load level.
const (
	fleetRate    = 5.0 // base ops per second; each delete rides on its create
	createEvery  = 5   // one create per createEvery base ops (20%)
	editTenths   = 3   // of the other base ops: 3/10 edits,
	scrapeTenths = 2   // 2/10 /metrics scrapes, the rest snapshots
	deleteAfter  = time.Second
	deleteJitter = time.Second / 2
)

// fleetOps is the fleet-churn control-plane schedule over the window:
// fleetRate ops/s in the mix above, edits alternating insert-delay:A
// and remove-delay:A per resident session, each delete deleteAfter to
// deleteAfter+deleteJitter after its create, and one drain of shard 0
// at 35% of the window with its undrain at 60%. The seed picks every
// due time, target and the order of the mix.
func fleetOps(seed uint64, window time.Duration, residents []string, churnPrefix string) []op {
	rng := rand.New(rand.NewPCG(seed, 0x666c656574))
	n := max(30, int(math.Round(fleetRate*window.Seconds())))
	nCreate := max(2, n/createEvery)
	var ops []op
	for i := 0; i < nCreate; i++ {
		// Creates sit on an even grid over the first 75% of the window,
		// with ±10% jitter, so a create (which synthesizes its tracks)
		// does not queue behind the previous one and every delete fits
		// the window.
		step := 0.75 * float64(window) / float64(nCreate)
		due := time.Duration(step * (float64(i) + 0.5 + 0.2*(rng.Float64()-0.5)))
		id := fmt.Sprintf("%s%d", churnPrefix, i)
		del := due + deleteAfter + time.Duration(rng.Float64()*float64(deleteJitter))
		ops = append(ops,
			op{Due: due, Route: "create", Target: id},
			op{Due: del, Route: "delete", Target: id})
	}
	ops = append(ops,
		op{Due: time.Duration(0.35 * float64(window)), Route: "drain", Target: "0"},
		op{Due: time.Duration(0.60 * float64(window)), Route: "undrain", Target: "0"})

	rest := n - nCreate - 2
	kinds := make([]string, rest)
	for i := range kinds {
		switch {
		case i%10 < editTenths:
			kinds[i] = "edit"
		case i%10 < editTenths+scrapeTenths:
			kinds[i] = "metrics"
		default:
			kinds[i] = "snapshot"
		}
	}
	rng.Shuffle(rest, func(a, b int) { kinds[a], kinds[b] = kinds[b], kinds[a] })
	for i, due := range jitteredSlots(rng, rest, window) {
		o := op{Due: due, Route: kinds[i]}
		if o.Route != "metrics" {
			o.Target = residents[rng.IntN(len(residents))]
		}
		ops = append(ops, o)
	}
	sort.SliceStable(ops, func(a, b int) bool { return ops[a].Due < ops[b].Due })

	// Dependencies and edit patches, in due order.
	created := map[string]int{}
	lastEdit := map[string]int{}
	drain := -1
	for i := range ops {
		o := &ops[i]
		o.After = -1
		switch o.Route {
		case "create":
			created[o.Target] = i
		case "delete":
			o.After = created[o.Target]
		case "drain":
			drain = i
		case "undrain":
			o.After = drain
		case "edit":
			o.Patch = "insert-delay:A"
			if prev, ok := lastEdit[o.Target]; ok {
				o.After = prev
				if ops[prev].Patch == "insert-delay:A" {
					o.Patch = "remove-delay:A"
				}
			}
			lastEdit[o.Target] = i
		}
	}
	return ops
}

// v1Client executes ops against a /v1 server.
type v1Client struct {
	base string
	hc   *http.Client
}

func newV1Client(addr string, conns int) *v1Client {
	return &v1Client{
		base: "http://" + addr,
		hc: &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     conns,
				MaxIdleConnsPerHost: conns,
				DisableCompression:  true,
			},
		},
	}
}

func (c *v1Client) close() { c.hc.CloseIdleConnections() }

// exec performs one op and checks its status and body.
func (c *v1Client) exec(o op) error {
	switch o.Route {
	case "create":
		body, _ := json.Marshal(map[string]string{"id": o.Target}) // map of strings: cannot fail
		return c.do(http.MethodPost, "/v1/sessions", body, http.StatusCreated, nil)
	case "delete":
		return c.do(http.MethodDelete, "/v1/sessions/"+o.Target, nil, http.StatusNoContent, nil)
	case "snapshot":
		return c.do(http.MethodGet, "/v1/sessions/"+o.Target+"/snapshot", nil, http.StatusOK, func(b []byte) error {
			var s struct {
				SchemaVersion int    `json:"schema_version"`
				SessionID     string `json:"session_id"`
			}
			if err := json.Unmarshal(b, &s); err != nil {
				return err
			}
			if s.SchemaVersion < 4 || s.SessionID != o.Target {
				return fmt.Errorf("snapshot schema %d session %q", s.SchemaVersion, s.SessionID)
			}
			return nil
		})
	case "edit":
		body, _ := json.Marshal(map[string]string{"patch": o.Patch}) // map of strings: cannot fail
		return c.do(http.MethodPost, "/v1/sessions/"+o.Target+"/edits", body, http.StatusOK, nil)
	case "metrics":
		return c.do(http.MethodGet, "/metrics", nil, http.StatusOK, func(b []byte) error {
			if !bytes.Contains(b, []byte("djstar_")) {
				return fmt.Errorf("scrape has no djstar_ series")
			}
			return nil
		})
	case "drain":
		return c.do(http.MethodPost, "/v1/shards/"+o.Target+"/drain", nil, http.StatusOK, nil)
	case "undrain":
		return c.do(http.MethodDelete, "/v1/shards/"+o.Target+"/drain", nil, http.StatusNoContent, nil)
	}
	return fmt.Errorf("unknown route %q", o.Route)
}

func (c *v1Client) do(method, path string, body []byte, want int, check func([]byte) error) error {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: status %d, want %d: %.200s", method, path, resp.StatusCode, want, b)
	}
	if check != nil {
		return check(b)
	}
	return nil
}
