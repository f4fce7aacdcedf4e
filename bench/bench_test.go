package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"math"
	"mime/multipart"
	"os"
	"reflect"
	"regexp"
	"sort"
	"testing"
	"time"
)

// These tests cover the harness's own arithmetic and determinism. None of
// them starts a server; the whole file runs in well under two seconds.

func TestNearestRank(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	for _, c := range []struct{ p, want float64 }{
		{5, 15}, {30, 20}, {40, 20}, {50, 35}, {95, 50}, {100, 50},
	} {
		if got := nearestRank(xs, c.p); got != c.want {
			t.Errorf("nearestRank(p=%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(nearestRank(nil, 50)) {
		t.Error("nearestRank of no samples should be NaN")
	}
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(i + 1)
	}
	if got := nearestRank(hundred, 95); got != 95 {
		t.Errorf("p95 of 1..100 = %v, want 95", got)
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{19, 50, false}, {20, 50, true}, // ten of twenty lie above the median
		{199, 95, false}, {200, 95, true},
		{999, 99, false}, {1000, 99, true},
	} {
		if got := supported(c.n, c.p); got != c.want {
			t.Errorf("supported(n=%d, p=%v) = %v, want %v (beyond=%d)", c.n, c.p, got, c.want, beyond(c.n, c.p))
		}
	}
}

func TestMedianOfRounds(t *testing.T) {
	nan := math.NaN()
	if got := medianOfRounds([]float64{9, 1, 5, 7, 3, 100, 4, 6}); got != 5.5 {
		t.Errorf("median of eight rounds = %v, want 5.5", got)
	}
	// One slow round does not move the figure.
	if got := medianOfRounds([]float64{10, 10, 10, 10, 10, 10, 10, 50}); got != 10 {
		t.Errorf("median with an outlier round = %v, want 10", got)
	}
	// Rounds without enough samples are skipped...
	if got := medianOfRounds([]float64{nan, 2, 4, nan, 6, nan, 8, 10}); got != 6 {
		t.Errorf("median skipping NaN rounds = %v, want 6", got)
	}
	// ...but a run where most rounds are empty has no median of rounds.
	if got := medianOfRounds([]float64{nan, nan, nan, nan, nan, 1, 2, 3}); !math.IsNaN(got) {
		t.Errorf("median of three usable rounds in eight = %v, want NaN", got)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4), the
// definition the gate uses for the spread of repeated runs.
func TestQuartilesMatchPython(t *testing.T) {
	// >>> statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
	// [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// >>> statistics.quantiles([2.0, 4.0, 4.5, 7.0, 11.0], n=4)
	// [3.0, 4.5, 9.0]
	q1, q3 = quartiles([]float64{2, 4, 4.5, 7, 11})
	if q1 != 3 || q3 != 9 {
		t.Errorf("quartiles of five = %v, %v; want 3, 9", q1, q3)
	}
}

func TestStraddles(t *testing.T) {
	// Two size classes, half the samples each: the median sits on the cliff.
	var cliff, inside []float64
	for i := 0; i < 100; i++ {
		cliff = append(cliff, 1+float64(i)/1000)
		inside = append(inside, 1+float64(i)/1000)
	}
	for i := 0; i < 100; i++ {
		cliff = append(cliff, 3+float64(i)/1000)
	}
	// The same two classes with the cheap one three times as frequent.
	for i := 0; i < 200; i++ {
		inside = append(inside, 1+float64(i)/1000)
	}
	for i := 0; i < 100; i++ {
		inside = append(inside, 3+float64(i)/1000)
	}
	sort.Float64s(cliff)
	sort.Float64s(inside)
	if !straddles(cliff, 50) {
		t.Error("a median between two equally frequent size classes should be flagged")
	}
	if straddles(inside, 50) {
		t.Error("a median well inside one size class should not be flagged")
	}
}

// TestSevenSlotsPutTheDoubledServiceAtTheMedian is what the seven-slot
// schedule is for: over one cycle, the median cost is the doubled service's,
// and the schedule visits the other five once each.
func TestSevenSlotsPutTheDoubledServiceAtTheMedian(t *testing.T) {
	// Six well-separated size classes, in no particular order.
	cost := [numServices]float64{900, 600, 1600, 300, 200, 100}
	slots, doubled := sevenSlots(cost)
	if doubled != 1 {
		t.Fatalf("doubled service = %d, want 1 (cost 600, the fourth-cheapest)", doubled)
	}
	seen := map[int]int{}
	var costs []float64
	for _, s := range slots {
		seen[s]++
		costs = append(costs, cost[s])
	}
	for svc := 0; svc < numServices; svc++ {
		want := 1
		if svc == doubled {
			want = 2
		}
		if seen[svc] != want {
			t.Errorf("service %d scheduled %d times per cycle, want %d", svc, seen[svc], want)
		}
	}
	sort.Float64s(costs)
	if nearestRank(costs, 50) != cost[doubled] {
		t.Errorf("median cost over a cycle = %v, want the doubled service's %v", nearestRank(costs, 50), cost[doubled])
	}
	if straddles(costs, 50) {
		t.Error("the median of a seven-slot cycle sits on a cliff")
	}
	// With six equal slots it does: the median falls between two classes.
	six := append([]float64(nil), cost[:]...)
	sort.Float64s(six)
	if six[2] == six[3] || !straddles(six, 50) {
		t.Error("six equal slots should put the median on the boundary between two size classes")
	}
	// Consecutive slots never repeat a service, wrap-around included.
	for i := range slots {
		if slots[i] == slots[(i+1)%numSlots] {
			t.Errorf("slots %d and %d both serve service %d", i, (i+1)%numSlots, slots[i])
		}
	}
}

func TestUploadJobsAlternateKinds(t *testing.T) {
	count := map[[2]int]int{}
	for k := 0; k < uploadCycle; k++ {
		kind, slot := uploadJob(k)
		if kind != k%2 {
			t.Fatalf("job %d is kind %d; kinds must alternate strictly", k, kind)
		}
		count[[2]int{kind, slot}]++
	}
	if len(count) != uploadCycle {
		t.Errorf("a cycle of %d jobs covers %d (kind, slot) pairs, want all %d", uploadCycle, len(count), uploadCycle)
	}
}

func scheduleOps(seed int64, client, clients int, cold bool, n int) []readOp {
	slots, _ := sevenSlots([numServices]float64{378, 303, 1651, 286, 114, 110})
	s := newReadSchedule(seed, client, clients, slots, cold)
	ops := make([]readOp, n)
	for i := range ops {
		ops[i] = s.next()
	}
	return ops
}

func TestReadScheduleIsSeeded(t *testing.T) {
	for _, cold := range []bool{false, true} {
		a, b := scheduleOps(7, 0, 2, cold, 500), scheduleOps(7, 0, 2, cold, 500)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("cold=%v: the same seed produced two different schedules", cold)
		}
		if c := scheduleOps(8, 0, 2, cold, 500); reflect.DeepEqual(a, c) {
			t.Errorf("cold=%v: seeds 7 and 8 produced the same schedule", cold)
		}
	}
}

// TestReadScheduleMixIsSeedIndependent: the seed picks versions, never the
// class mix or the service proportions, or runs on different seeds would
// measure different work.
func TestReadScheduleMixIsSeedIndependent(t *testing.T) {
	type cell struct {
		class opClass
		svc   int
	}
	tally := func(seed int64) map[cell]int {
		m := map[cell]int{}
		for _, op := range scheduleOps(seed, 0, 2, false, 700) {
			m[cell{op.class, op.t.svc}]++
		}
		return m
	}
	a, b := tally(1), tally(99)
	if !reflect.DeepEqual(a, b) {
		t.Error("class × service counts differ between seeds")
	}
	perClass := map[opClass]int{}
	for c, n := range a {
		perClass[c.class] += n
	}
	want := map[opClass]int{clsSnapshot: 350, clsReportGz: 70, clsCSV: 70, clsDiff: 70, clsDiffChild: 70, clsRevalidate: 70}
	if !reflect.DeepEqual(perClass, want) {
		t.Errorf("class counts over 700 reads = %v, want %v", perClass, want)
	}
}

// TestColdSweepNeverRereadsSoon is the property that makes read-cold cold:
// between two decodes of one snapshot (a diff decodes two) far more distinct
// snapshots are decoded than a 2 MiB cache holds (about 68 of the mix) —
// however the clients' speeds relate, since closed-loop clients drift.
func TestColdSweepNeverRereadsSoon(t *testing.T) {
	const clients, perClient = 2, 4000
	for _, speed := range [][clients]int{{1, 1}, {3, 2}, {2, 3}} {
		var streams [clients][]readOp
		for c := range streams {
			streams[c] = scheduleOps(3, c, clients, true, perClient)
		}
		last := map[target]int{}
		decodes, closest := 0, math.MaxInt
		touch := func(tg target) {
			if at, ok := last[tg]; ok && decodes-at < closest {
				closest = decodes - at
			}
			last[tg] = decodes
			decodes++
		}
		var pos [clients]int
		for pos[0] < perClient && pos[1] < perClient {
			for c := 0; c < clients; c++ {
				for k := 0; k < speed[c] && pos[c] < perClient; k++ {
					op := streams[c][pos[c]]
					pos[c]++
					switch op.class {
					case clsRevalidate:
					case clsDiff, clsDiffChild:
						touch(op.t)
						touch(target{op.t.svc, op.t.ver + 1})
					default:
						touch(op.t)
					}
				}
			}
		}
		if closest < 100 {
			t.Errorf("speeds %v: a snapshot was decoded again after only %d other decodes", speed, closest)
		}
		if len(last) != numServices*numVersions {
			t.Errorf("speeds %v: the sweep covered %d of %d snapshots", speed, len(last), numServices*numVersions)
		}
	}
}

func TestDiffTargetsHaveASuccessor(t *testing.T) {
	for _, cold := range []bool{false, true} {
		for _, op := range scheduleOps(5, 1, 2, cold, 5000) {
			if (op.class == clsDiff || op.class == clsDiffChild) && op.t.ver+1 >= numVersions {
				t.Fatalf("cold=%v: diff from version %d has no next version", cold, op.t.ver)
			}
			if op.t.ver < 0 || op.t.ver >= numVersions || op.t.svc < 0 || op.t.svc >= numServices {
				t.Fatalf("cold=%v: target %+v out of range", cold, op.t)
			}
		}
	}
}

// TestMultipartBytesArePinned: a job's body is a function of the boundary,
// the name and the capture bytes alone, and reads back as the form the
// server expects. The hash pins the encoding.
func TestMultipartBytesArePinned(t *testing.T) {
	files := []capFile{
		{field: "child", data: []byte(`{"log":{"entries":[]}}`)},
		{field: "adult", data: []byte{0x0a, 0x0d, 0x0d, 0x0a, 0, 1, 2, 3}},
	}
	c := &corpus{seed: 42, boundary: "diffauditbench000000000000002a", names: [numServices]string{"Duolingo"}}
	name := c.jobName("m-", 0, kindWeb, 17)
	if name != "Duolingo-web-s42-m-00017" {
		t.Fatalf("job name = %q", name)
	}
	tail, err := multipartTail(c.boundary, kindWeb, files)
	if err != nil {
		t.Fatal(err)
	}
	body := append([]byte(multipartHead(c.boundary, name)), tail...)
	sum := sha256.Sum256(body)
	const want = "57dd4f15c7c94853d9640471697d564da12ac3cbb21c503b65d2dea75c603168"
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("multipart body hash = %s, want %s", got, want)
	}

	again, _ := multipartTail(c.boundary, kindWeb, files)
	if !bytes.Equal(tail, again) {
		t.Error("the same inputs encoded differently")
	}
	c.seed = 43
	if other := c.jobName("m-", 0, kindWeb, 17); other == name {
		t.Error("another seed produced the same job name")
	}

	mr := multipart.NewReader(bytes.NewReader(body), c.boundary)
	var got []string
	for {
		part, err := mr.NextPart()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(part)
		got = append(got, part.FormName()+"/"+part.FileName()+"/"+hex.EncodeToString(data[:min(4, len(data))]))
	}
	wantParts := []string{"name//44756f6c", "child/child.har/7b226c6f", "adult/adult.har/0a0d0d0a"}
	if !reflect.DeepEqual(got, wantParts) {
		t.Errorf("parts read back = %v, want %v", got, wantParts)
	}
}

func TestPcapngWriterFraming(t *testing.T) {
	w := pcapngWriter{}
	w.header(101, false, [][]byte{[]byte("CLIENT_RANDOM aa bb\n")})
	w.packet(time.Unix(1700000000, 123456000), []byte{1, 2, 3, 4, 5}, 0)
	raw := w.buf.Bytes()
	// Every block is 32-bit aligned and carries its length at both ends.
	var kinds []uint32
	for off := 0; off < len(raw); {
		kind := le32(raw[off:])
		total := int(le32(raw[off+4:]))
		if total%4 != 0 || off+total > len(raw) || le32(raw[off+total-4:]) != uint32(total) {
			t.Fatalf("block at %d: type %#x, length %d, trailer %d", off, kind, total, le32(raw[off+total-4:]))
		}
		kinds = append(kinds, kind)
		off += total
	}
	if want := []uint32{0x0A0D0D0A, 1, 0xA, 6}; !reflect.DeepEqual(kinds, want) {
		t.Errorf("block types = %#x, want %#x (section, interface, secrets, packet)", kinds, want)
	}
}

func le32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func TestParseStat(t *testing.T) {
	// The command name holds spaces and a ')' of its own.
	line := "4242 (diff audit) x) S 1 4242 4242 0 -1 4194560 1234 0 0 0 731 94 0 0 20 0 9 0 55555 1234567 890 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0"
	user, sys, err := parseStat(line)
	if err != nil {
		t.Fatal(err)
	}
	if user != 7310 || sys != 940 {
		t.Errorf("utime, stime = %v ms, %v ms; want 7310, 940", user, sys)
	}
	if _, _, err := parseStat("no parenthesis here"); err == nil {
		t.Error("a line without a command field should be an error")
	}
	if _, _, err := parseStat("1 (x) S 1 2"); err == nil {
		t.Error("a truncated line should be an error")
	}
}

func TestParseKeyed(t *testing.T) {
	status := "Name:\tdiffaudit\nVmPeak:\t  1240000 kB\nVmHWM:\t  226304 kB\nThreads:\t9\nvoluntary_ctxt_switches:\t1520\nnonvoluntary_ctxt_switches:\t37\n"
	st := parseKeyed(status)
	if st["VmHWM"] != 226304 || st["voluntary_ctxt_switches"] != 1520 || st["nonvoluntary_ctxt_switches"] != 37 {
		t.Errorf("status parsed as %v", st)
	}
	if _, ok := st["Name"]; ok {
		t.Error("a non-numeric value should be left out")
	}
	io := parseKeyed("rchar: 1\nwchar: 2\nsyscr: 3\nsyscw: 2705\nread_bytes: 0\nwrite_bytes: 4096000\ncancelled_write_bytes: 0\n")
	if io["syscw"] != 2705 || io["write_bytes"] != 4096000 {
		t.Errorf("io parsed as %v", io)
	}
}

func TestParseHostCPU(t *testing.T) {
	h, err := parseHostCPU("cpu  1000 10 200 5000 50 0 20 300 0 0\ncpu0 1 2 3 4 5 6 7 8 0 0\n")
	if err != nil {
		t.Fatal(err)
	}
	// Ticks of 10 ms: total 6580 ticks, busy = total − idle − iowait − steal.
	if h.totalMs != 65800 || h.busyMs != 12300 || h.stealMs != 3000 {
		t.Errorf("parsed %+v, want total 65800, busy 12300, steal 3000", h)
	}
	if _, err := parseHostCPU("intr 1 2 3\n"); err == nil {
		t.Error("a file without the aggregate cpu line should be an error")
	}
}

// TestBenchmarkJSONMatchesDeclarations keeps BENCHMARK.json and metrics.go
// in step, and checks the declarations against the limits the file format
// sets.
func TestBenchmarkJSONMatchesDeclarations(t *testing.T) {
	committed, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the bench directory:", err)
	}
	if want := benchmarkJSON(); !bytes.Equal(committed, want) {
		t.Error("BENCHMARK.json differs from metrics.go; regenerate it with: bash bench/run.sh --benchmark-json > BENCHMARK.json")
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(m metricDef) {
		if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("metric %+v breaks the format", m)
		}
		if seen[m.Name] {
			t.Errorf("name %s used twice", m.Name)
		}
		seen[m.Name] = true
	}
	hasSetup := false
	for _, m := range endToEnd {
		check(m)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range perLayer {
		check(m)
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 || len(workloads) < 2 || len(workloads) > 8 {
		t.Errorf("%d per-layer, %d end-to-end metrics, %d workloads", len(perLayer), len(endToEnd), len(workloads))
	}
	for _, w := range workloads {
		if !name.MatchString(w.name) || seen[w.name] || len(w.why) > 200 || len(w.why) == 0 {
			t.Errorf("workload %q: bad name, duplicate, or why of %d characters", w.name, len(w.why))
		}
		seen[w.name] = true
	}
}
