package core

import (
	"fmt"
	"math"
	"sync"
)

// Dense is a fully general unrelated-machines instance backed by an explicit
// m×n cost matrix.
type Dense struct {
	p [][]Cost // p[machine][job]
}

// NewDense builds a Dense instance from the given matrix. The matrix is used
// directly (not copied); callers must not mutate it afterwards. All rows must
// have equal length.
func NewDense(p [][]Cost) (*Dense, error) {
	if len(p) == 0 {
		return nil, fmt.Errorf("core: dense instance needs at least one machine")
	}
	n := len(p[0])
	for i, row := range p {
		if len(row) != n {
			return nil, fmt.Errorf("core: row %d has %d jobs, row 0 has %d", i, len(row), n)
		}
	}
	return &Dense{p: p}, nil
}

// MustDense is NewDense but panics on error; intended for tests and for
// hand-built adversarial instances whose shape is known statically.
func MustDense(p [][]Cost) *Dense {
	d, err := NewDense(p)
	if err != nil {
		panic(err)
	}
	return d
}

// NumMachines implements CostModel.
func (d *Dense) NumMachines() int { return len(d.p) }

// NumJobs implements CostModel.
func (d *Dense) NumJobs() int { return len(d.p[0]) }

// Cost implements CostModel.
func (d *Dense) Cost(machine, job int) Cost { return d.p[machine][job] }

// Check implements Checker. Dense has no structure to exploit, so it scans
// the matrix in full up to checkCellBudget cells and falls back to the same
// deterministic per-row sample CheckModel uses for opaque models beyond it.
func (d *Dense) Check() error { return checkDenseView(d) }

// Identical is an instance of identical machines: every job has the same
// processing time on every machine.
type Identical struct {
	m int
	p []Cost // p[job]
}

// NewIdentical builds an identical-machines instance with m machines and the
// given job sizes. m may not exceed math.MaxInt32, the most machines an
// Assignment holds.
func NewIdentical(m int, sizes []Cost) (*Identical, error) {
	if m <= 0 {
		return nil, fmt.Errorf("core: identical instance needs m > 0, got %d", m)
	}
	if err := checkMachineCount(int64(m)); err != nil {
		return nil, err
	}
	return &Identical{m: m, p: sizes}, nil
}

// checkMachineCount rejects a model of more than math.MaxInt32 machines:
// an Assignment stores each job's machine as a 32-bit id.
func checkMachineCount(m int64) error {
	if m > math.MaxInt32 {
		return fmt.Errorf("core: %d machines; at most %d are supported", m, math.MaxInt32)
	}
	return nil
}

// NumMachines implements CostModel.
func (id *Identical) NumMachines() int { return id.m }

// NumJobs implements CostModel.
func (id *Identical) NumJobs() int { return len(id.p) }

// Cost implements CostModel.
func (id *Identical) Cost(_, job int) Cost { return id.p[job] }

// Size returns the machine-independent size of a job.
func (id *Identical) Size(job int) Cost { return id.p[job] }

// Check implements Checker in O(n): every cost of the m×n matrix is one of
// the n stored sizes.
func (id *Identical) Check() error {
	for j, c := range id.p {
		if c < 0 {
			return fmt.Errorf("core: job %d has negative size %d", j, c)
		}
	}
	return nil
}

// Related is a uniformly-related instance: machine i processes job j in
// size[j] / speed[i] time. To stay in integer arithmetic, speeds are
// expressed as positive integers and the cost is the ceiling of the
// division, which preserves the "faster machine is never slower" property.
type Related struct {
	speed []int64 // speed[machine] > 0
	p     []Cost  // size[job]
}

// NewRelated builds a related-machines instance.
func NewRelated(speeds []int64, sizes []Cost) (*Related, error) {
	if len(speeds) == 0 {
		return nil, fmt.Errorf("core: related instance needs at least one machine")
	}
	for i, s := range speeds {
		if s <= 0 {
			return nil, fmt.Errorf("core: machine %d has non-positive speed %d", i, s)
		}
	}
	return &Related{speed: speeds, p: sizes}, nil
}

// NumMachines implements CostModel.
func (r *Related) NumMachines() int { return len(r.speed) }

// NumJobs implements CostModel.
func (r *Related) NumJobs() int { return len(r.p) }

// Cost implements CostModel.
func (r *Related) Cost(machine, job int) Cost {
	s := r.speed[machine]
	return (r.p[job] + Cost(s) - 1) / Cost(s)
}

// Check implements Checker in O(m+n): with positive speeds, ceil(size/speed)
// is non-negative iff the size is.
func (r *Related) Check() error {
	for i, s := range r.speed {
		if s <= 0 {
			return fmt.Errorf("core: machine %d has non-positive speed %d", i, s)
		}
	}
	for j, c := range r.p {
		if c < 0 {
			return fmt.Errorf("core: job %d has negative size %d", j, c)
		}
	}
	return nil
}

// Typed is an instance where jobs are grouped into k types (Section V of the
// paper): two jobs of the same type have identical cost on every machine, so
// the matrix collapses to m×k. The model caches its type order (TypeOrder),
// the order MJTB keeps its job lists in, so its type map and costs must not
// change after construction.
type Typed struct {
	typeOf []int    // typeOf[job] in [0, k)
	p      [][]Cost // p[machine][type]

	// The type order and its rank bounds, built once by the first
	// TypeOrder call, and the JobsOfType buckets, built once from it; the
	// Onces make both builds safe under the concurrent engines and harness
	// workers, which share one model.
	orderOnce  sync.Once
	order      []uint32
	bounds     []int
	bucketOnce sync.Once
	byType     [][]int
}

// NewTyped builds a typed instance. p[i][t] is the cost of any type-t job on
// machine i; typeOf maps each job to its type.
func NewTyped(p [][]Cost, typeOf []int) (*Typed, error) {
	if len(p) == 0 {
		return nil, fmt.Errorf("core: typed instance needs at least one machine")
	}
	k := len(p[0])
	for i, row := range p {
		if len(row) != k {
			return nil, fmt.Errorf("core: machine %d has %d types, machine 0 has %d", i, len(row), k)
		}
	}
	for j, t := range typeOf {
		if t < 0 || t >= k {
			return nil, fmt.Errorf("core: job %d has type %d outside [0, %d)", j, t, k)
		}
	}
	return &Typed{typeOf: typeOf, p: p}, nil
}

// NumMachines implements CostModel.
func (t *Typed) NumMachines() int { return len(t.p) }

// NumJobs implements CostModel.
func (t *Typed) NumJobs() int { return len(t.typeOf) }

// Cost implements CostModel.
func (t *Typed) Cost(machine, job int) Cost { return t.p[machine][t.typeOf[job]] }

// NumTypes returns k, the number of job types.
func (t *Typed) NumTypes() int { return len(t.p[0]) }

// TypeOf returns the type of a job.
func (t *Typed) TypeOf(job int) int { return t.typeOf[job] }

// TypeCosts returns machine's cost of each job type, indexed by type, for
// kernels that price a whole type at once; callers must not modify it.
func (t *Typed) TypeCosts(machine int) []Cost { return t.p[machine] }

// Check implements Checker in O(m·k+n): the matrix has only m·k distinct
// entries, and the type map is range-checked per job.
func (t *Typed) Check() error {
	k := t.NumTypes()
	for i, row := range t.p {
		for typ, c := range row {
			if c < 0 {
				return fmt.Errorf("core: negative cost p[%d][type %d] = %d", i, typ, c)
			}
		}
	}
	for j, tt := range t.typeOf {
		if tt < 0 || tt >= k {
			return fmt.Errorf("core: job %d has type %d outside [0, %d)", j, tt, k)
		}
	}
	return nil
}

// JobsOfType returns the indices of all jobs with the given type, in
// increasing order: the type's run of TypeOrder. The buckets are built once,
// lazily, on the first call, as one shared backing array, so each call
// serves a subslice in O(1) instead of scanning and reallocating O(n) per
// query. The returned slice is shared; callers must not mutate it.
func (t *Typed) JobsOfType(typ int) []int {
	t.bucketOnce.Do(t.buildBuckets)
	return t.byType[typ]
}

// buildBuckets fills byType with the runs of the type order, widened to int.
func (t *Typed) buildBuckets() {
	order, bounds := t.TypeOrder()
	backing := make([]int, len(order))
	for k, j := range order {
		backing[k] = int(j)
	}
	t.byType = make([][]int, t.NumTypes())
	for typ := range t.byType {
		// Full-slice expressions pin each bucket's capacity so an (illegal)
		// append through a returned bucket cannot silently overwrite its
		// neighbour.
		t.byType[typ] = backing[bounds[typ]:bounds[typ+1]:bounds[typ+1]]
	}
}

// TypeOrder returns the model's type order: order[k] is the k-th job by
// type, then by index, so the order is the JobsOfType buckets laid end to
// end, and the jobs of type t hold the ranks bounds[t] to bounds[t+1]-1
// (bounds has k+1 entries; bounds[k] is n, and an empty type's two bounds
// are equal). The first call builds both in one counting pass, and the
// model keeps the order at 4 bytes per job; every later call, from any
// goroutine, returns the same slices, which callers must not modify. MJTB
// keeps its job lists in this order, so a job's rank gives its type.
func (t *Typed) TypeOrder() (order []uint32, bounds []int) {
	t.orderOnce.Do(t.buildOrder)
	return t.order, t.bounds
}

// buildOrder counts the jobs of each type into bounds, then places every
// job at the next free rank of its type, in increasing job order.
func (t *Typed) buildOrder() {
	k := t.NumTypes()
	bounds := make([]int, k+1)
	for _, tt := range t.typeOf {
		bounds[tt+1]++
	}
	for typ := 0; typ < k; typ++ {
		bounds[typ+1] += bounds[typ]
	}
	next := append([]int(nil), bounds[:k]...)
	order := make([]uint32, len(t.typeOf))
	for j, tt := range t.typeOf {
		order[next[tt]] = uint32(j)
		next[tt]++
	}
	t.order, t.bounds = order, bounds
}

// TwoCluster is the Section VI instance: machines are partitioned into two
// clusters of identical machines, and a job's cost depends only on the
// cluster, so the matrix collapses to 2×n.
type TwoCluster struct {
	m1, m2 int       // sizes of cluster 0 and cluster 1
	p      [2][]Cost // p[cluster][job]

	// The exact ratio order, built once by the first RatioOrder or
	// RatioKeys call; the Once makes the build safe under the concurrent
	// engines and harness workers, which share one model.
	orderOnce sync.Once
	order     []uint32
}

// NewTwoCluster builds a two-cluster instance with m1 machines in cluster 0
// and m2 machines in cluster 1. Machines [0, m1) belong to cluster 0 and
// machines [m1, m1+m2) to cluster 1, and m1+m2 may not exceed
// math.MaxInt32, the most machines an Assignment holds. The cost vectors are
// used directly (not copied) and must not change afterwards: the model
// caches their ratio order.
func NewTwoCluster(m1, m2 int, p0, p1 []Cost) (*TwoCluster, error) {
	if m1 <= 0 || m2 <= 0 {
		return nil, fmt.Errorf("core: two-cluster instance needs positive cluster sizes, got %d and %d", m1, m2)
	}
	if err := checkMachineCount(int64(m1) + int64(m2)); err != nil {
		return nil, err
	}
	if len(p0) != len(p1) {
		return nil, fmt.Errorf("core: cluster cost vectors disagree on n: %d vs %d", len(p0), len(p1))
	}
	return &TwoCluster{m1: m1, m2: m2, p: [2][]Cost{p0, p1}}, nil
}

// NumMachines implements CostModel.
func (tc *TwoCluster) NumMachines() int { return tc.m1 + tc.m2 }

// NumJobs implements CostModel.
func (tc *TwoCluster) NumJobs() int { return len(tc.p[0]) }

// Cost implements CostModel.
func (tc *TwoCluster) Cost(machine, job int) Cost {
	return tc.p[tc.ClusterOf(machine)][job]
}

// ClusterOf returns 0 or 1, the cluster of the given machine.
func (tc *TwoCluster) ClusterOf(machine int) int {
	if machine < tc.m1 {
		return 0
	}
	return 1
}

// ClusterSize returns the number of machines in the given cluster.
func (tc *TwoCluster) ClusterSize(cluster int) int {
	if cluster == 0 {
		return tc.m1
	}
	return tc.m2
}

// ClusterCost returns the cost of a job on any machine of the given cluster.
func (tc *TwoCluster) ClusterCost(cluster, job int) Cost { return tc.p[cluster][job] }

// ClusterCosts returns the cost vector of a cluster, indexed by job, for
// kernels that read many jobs' costs at once; callers must not modify it.
func (tc *TwoCluster) ClusterCosts(cluster int) []Cost { return tc.p[cluster] }

// RatioOrder returns the model's exact ratio order: order[k] is the k-th
// job in increasing p0/p1 ratio, ties by job index (OrderJobs' ByRatio on
// cluster 0), the order of CLB2C and Greedy Load Balancing. The first call
// to RatioOrder or RatioKeys computes it with OrderJobs, and the model
// keeps it at 4 bytes per job; every later call, from any goroutine,
// returns the same slice, which callers must not modify. DLB2C keeps its
// job lists in this order.
func (tc *TwoCluster) RatioOrder() []uint32 {
	tc.orderOnce.Do(func() { tc.buildOrder(nil, nil) })
	return tc.order
}

// RatioKeys returns the jobs in RatioOrder as OrderJobs returns them,
// int(uint32(sorted[k])) being the k-th job, in keys and buf (reused when
// long enough; the second result is the spare): the keys CLB2C walks. The
// first call on a model sorts them there and keeps their order; a later
// call copies the cached order into keys without sorting.
func (tc *TwoCluster) RatioKeys(keys, buf []uint64) (sorted, spare []uint64) {
	built := false
	tc.orderOnce.Do(func() {
		sorted, spare = tc.buildOrder(keys, buf)
		built = true
	})
	if built {
		return sorted, spare
	}
	keys = Resize(keys, len(tc.order))
	for k, j := range tc.order {
		keys[k] = uint64(j)
	}
	return keys, buf
}

// buildOrder orders the jobs with OrderJobs in keys and buf and keeps the
// order; orderOnce runs it once.
func (tc *TwoCluster) buildOrder(keys, buf []uint64) (sorted, spare []uint64) {
	sorted, spare = OrderJobs(ByRatio, tc.p[0], tc.p[1], nil, keys, buf)
	order := make([]uint32, len(sorted))
	for k, key := range sorted {
		order[k] = uint32(key)
	}
	tc.order = order
	return sorted, spare
}

// Check implements Checker in O(n): the m×n matrix has only the 2×n stored
// entries.
func (tc *TwoCluster) Check() error {
	for cluster, row := range tc.p {
		for j, c := range row {
			if c < 0 {
				return fmt.Errorf("core: negative cost p[cluster %d][%d] = %d", cluster, j, c)
			}
		}
	}
	return nil
}

// Clustered is implemented by cost models that expose a partition of the
// machines into two clusters of identical machines. DLB2C and CLB2C require
// this structure.
type Clustered interface {
	CostModel
	ClusterOf(machine int) int
	ClusterSize(cluster int) int
	ClusterCost(cluster, job int) Cost
}

var (
	_ CostModel = (*Dense)(nil)
	_ CostModel = (*Identical)(nil)
	_ CostModel = (*Related)(nil)
	_ CostModel = (*Typed)(nil)
	_ Clustered = (*TwoCluster)(nil)

	_ Checker = (*Dense)(nil)
	_ Checker = (*Identical)(nil)
	_ Checker = (*Related)(nil)
	_ Checker = (*Typed)(nil)
	_ Checker = (*TwoCluster)(nil)
)
