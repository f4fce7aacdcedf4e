package main

import (
	"math/rand"
	"sort"
)

// opClass names one kind of client operation. Latency is only ever
// summarised within a class: a percentile over a mix of classes describes
// the mix, not the server.
type opClass int

const (
	clsWeb        opClass = iota // upload of four persona HARs, submit → done
	clsMobile                    // upload of four persona pcapngs, submit → done
	clsSnapshot                  // GET /v1/snapshots/{hash}
	clsReportGz                  // GET /v1/jobs/{id}/report.json, gzip negotiated
	clsCSV                       // GET /v1/jobs/{id}/report.csv
	clsDiff                      // GET /v1/diff?from=&to=
	clsDiffChild                 // the same with &personas=child (partial materialization)
	clsRevalidate                // GET /v1/snapshots/{seq} with If-None-Match → 304
	clsReportID                  // identity-coded report.json (traced run only)
	numClasses
)

var classNames = [numClasses]string{"web", "mobile", "snapshot", "report_gz", "csv", "diff", "diff_child", "revalidate", "report_id"}

func (c opClass) String() string { return classNames[c] }

// readPattern is the read mix, ten operations long: 5 snapshot, 1 report_gz,
// 1 csv, 2 diff (one of them restricted to the child persona), 1 revalidate,
// (in an order the schedule reshuffles block by block). The persona-filtered diff is a class
// of its own: it costs about a quarter of a full diff, and a median over
// both would sit on the gap between them.
var readPattern = [10]opClass{
	clsSnapshot, clsDiff, clsSnapshot, clsReportGz, clsSnapshot,
	clsCSV, clsSnapshot, clsDiffChild, clsSnapshot, clsRevalidate,
}

const (
	numServices = 6
	numSlots    = 7
	numVersions = 100 // stored versions per service on the read workloads
)

// sevenSlots turns per-service costs into the cyclic schedule every workload
// uses. The six services fall into six size classes (report sizes 110 KB to
// 1.6 MB), so with six equal slots the median of any latency lands on the gap
// between the third and fourth class and jumps by the whole gap when one
// sample moves. Seven slots, the fourth-cheapest service taking two, put the
// median inside that service's samples. The order interleaves cheap and dear
// so that consecutive operations differ.
func sevenSlots(cost [numServices]float64) (slots [numSlots]int, doubled int) {
	idx := []int{0, 1, 2, 3, 4, 5}
	sort.SliceStable(idx, func(a, b int) bool { return cost[idx[a]] < cost[idx[b]] })
	doubled = idx[3]
	return [numSlots]int{idx[0], idx[3], idx[5], idx[1], idx[3], idx[4], idx[2]}, doubled
}

// uploadJob says what the k-th job of an upload lane carries: kinds alternate
// strictly (web, mobile, web, ...) so neither decoder ever runs inside the
// other's job, and within a kind the service follows the seven-slot cycle.
func uploadJob(k int) (kind, slot int) { return k % 2, (k / 2) % numSlots }

// uploadCycle is the number of jobs after which an upload lane has sent
// every slot of both kinds once.
const uploadCycle = 2 * numSlots

// target is one stored snapshot a read addresses.
type target struct{ svc, ver int }

// readOp is one scheduled read.
type readOp struct {
	class opClass
	t     target // for the diffs: from t.ver to t.ver+1
}

// readSchedule produces one client's endless read sequence. Every block of
// ten operations holds the read mix exactly, and within a class every block
// of seven holds the seven slots exactly, so every class sees every service
// in fixed proportion whatever the seed; the seed decides the order inside
// each block and which version of the service is read.
//
// The order inside the blocks is shuffled per client so that clients do not
// walk the same 70-operation cycle in step: in step, which operations
// coincide on the server (a 0.7 ms diff beside a 25 ms render, or beside
// another diff) would be fixed for a whole run by how the run happened to
// start.
type readSchedule struct {
	slots [numSlots]int
	cold  bool
	rng   *rand.Rand
	zipf  *rand.Zipf
	perm  [numServices][]int // warm: popularity rank → version
	block []opClass          // what is left of the current block of ten
	left  [numClasses][]int  // per class, what is left of its block of seven services
	sweep [numServices]int   // cold: next position of the per-service sweep
	base  int                // cold: first version of this client's block
	span  int                // cold: versions in the block
}

func newReadSchedule(seed int64, client, clients int, slots [numSlots]int, cold bool) *readSchedule {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(client)*7919 + 17))
	s := &readSchedule{slots: slots, cold: cold, rng: rng}
	// Popularity is a property of the data set, not of the client: every
	// client ranks the versions the same way.
	shared := rand.New(rand.NewSource(seed*1_000_003 + 5))
	for svc := range s.perm {
		s.perm[svc] = shared.Perm(numVersions)
	}
	s.zipf = rand.NewZipf(rng, 1.1, 1, numVersions-1)
	// Cold: each client sweeps a block of versions of its own. Offsets into
	// one shared sweep do not keep clients apart: closed-loop clients drift,
	// and one that is 4% faster has caught up a quarter of a lap within a
	// run, after which each reads what the other has just decoded.
	s.span = max(4, numVersions/clients)
	s.base = client * s.span % (numVersions - s.span + 1)
	for svc := range s.sweep {
		s.sweep[svc] = shared.Intn(s.span)
	}
	return s
}

func (s *readSchedule) next() readOp {
	if len(s.block) == 0 {
		s.block = append(s.block, readPattern[:]...)
		s.rng.Shuffle(len(s.block), func(i, j int) { s.block[i], s.block[j] = s.block[j], s.block[i] })
	}
	cls := s.block[0]
	s.block = s.block[1:]
	if len(s.left[cls]) == 0 {
		s.left[cls] = append(s.left[cls], s.slots[:]...)
		s.rng.Shuffle(numSlots, func(i, j int) { s.left[cls][i], s.left[cls][j] = s.left[cls][j], s.left[cls][i] })
	}
	svc := s.left[cls][0]
	s.left[cls] = s.left[cls][1:]
	var ver int
	if s.cold {
		// Within the block, even positions first, then odd: a diff of v→v+1
		// decodes an odd version half a lap before and after that version's
		// own turn, so with a cache a ninth of the working set nothing read
		// is still resident. The block's last version has no successor in
		// the block; a diff takes the next turn instead.
		for {
			i := s.sweep[svc] % s.span
			s.sweep[svc]++
			local := 2 * i
			if local >= s.span {
				local = 2*(i-(s.span+1)/2) + 1
			}
			ver = s.base + local
			if local < s.span-1 || (cls != clsDiff && cls != clsDiffChild) {
				break
			}
		}
	} else {
		ver = s.perm[svc][int(s.zipf.Uint64())]
	}
	op := readOp{class: cls, t: target{svc, ver}}
	if (cls == clsDiff || cls == clsDiffChild) && ver >= numVersions-1 {
		op.t.ver = numVersions - 2
	}
	return op
}
