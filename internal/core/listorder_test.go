package core

import (
	"slices"
	"strconv"
	"sync"
	"testing"
)

// TestRatioOrderIsOrderJobs checks the cached order against OrderJobs on
// the model's cost vectors, costs 0 and ties included, with four
// goroutines making the first call at once: every call returns the one
// cached slice.
func TestRatioOrderIsOrderJobs(t *testing.T) {
	p0 := []Cost{3, 0, 5, 2, 0, 6, 1, 4, 3, 0}
	p1 := []Cost{6, 0, 5, 4, 7, 3, 2, 4, 6, 2}
	tc, err := NewTwoCluster(2, 3, p0, p1)
	if err != nil {
		t.Fatal(err)
	}
	orders := make([][]uint32, 4)
	var wg sync.WaitGroup
	for g := range orders {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			orders[g] = tc.RatioOrder()
		}(g)
	}
	wg.Wait()
	keys, _ := OrderJobs(ByRatio, p0, p1, nil, nil, nil)
	for g, o := range orders {
		if len(o) != len(keys) || &o[0] != &tc.RatioOrder()[0] {
			t.Fatalf("goroutine %d: got an order other than the cached one", g)
		}
		for k, key := range keys {
			if o[k] != uint32(key) {
				t.Fatalf("position %d holds job %d, OrderJobs has %d", k, o[k], uint32(key))
			}
		}
	}
}

// TestTypeOrderIsJobsOfType checks the cached type order, type 1 empty,
// with four goroutines making the first call at once, two through
// TypeOrder and two through JobsOfType, which builds its buckets from it:
// every call returns the one cached order and bounds. The order must sort
// the jobs by type and then by index, each type's run must be its
// JobsOfType bucket, and the bounds must delimit the runs.
func TestTypeOrderIsJobsOfType(t *testing.T) {
	typeOf := []int{2, 0, 2, 3, 0, 2, 3, 3, 0, 2}
	ty, err := NewTyped([][]Cost{{1, 2, 3, 4}, {5, 6, 7, 8}}, typeOf)
	if err != nil {
		t.Fatal(err)
	}
	orders := make([][]uint32, 4)
	bounds := make([][]int, 4)
	var wg sync.WaitGroup
	for g := range orders {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if g%2 == 1 {
				_ = ty.JobsOfType(2)
			}
			orders[g], bounds[g] = ty.TypeOrder()
		}(g)
	}
	wg.Wait()
	wantOrder := []uint32{1, 4, 8, 0, 2, 5, 9, 3, 6, 7}
	wantBounds := []int{0, 3, 3, 7, 10}
	order, bound := ty.TypeOrder()
	for g := range orders {
		if &orders[g][0] != &order[0] || &bounds[g][0] != &bound[0] {
			t.Fatalf("goroutine %d: got an order other than the cached one", g)
		}
	}
	if !slices.Equal(order, wantOrder) || !slices.Equal(bound, wantBounds) {
		t.Fatalf("TypeOrder = %v, bounds %v; want %v, bounds %v", order, bound, wantOrder, wantBounds)
	}
	for typ := 0; typ < ty.NumTypes(); typ++ {
		var run []int
		for _, j := range order[bound[typ]:bound[typ+1]] {
			run = append(run, int(j))
		}
		if got := ty.JobsOfType(typ); !slices.Equal(got, run) && len(got)+len(run) > 0 {
			t.Fatalf("JobsOfType(%d) = %v, the order's run is %v", typ, got, run)
		}
	}
}

// TestFillOrderedLists checks the ranked list build: with a permutation
// order, each machine's entries are strictly increasing, entry k<<32 | job
// for the job of rank k, and decode to the Jobs scan; unassigned jobs are
// on no list; the build allocates only its counts.
func TestFillOrderedLists(t *testing.T) {
	if strconv.IntSize < 64 {
		t.Skip("ranked entries need a 64-bit int")
	}
	p0 := make([]Cost, 500)
	p1 := make([]Cost, 500)
	for j := range p0 {
		p0[j], p1[j] = Cost(1+(j*37)%23), Cost(1+(j*11)%19)
	}
	tc, _ := NewTwoCluster(4, 3, p0, p1)
	machineOf := make([]int, tc.NumJobs())
	for j := range machineOf {
		machineOf[j] = (j * 5) % 7
		if j%9 == 0 {
			machineOf[j] = -1
		}
	}
	a := mustFromMachineOf(t, tc, machineOf)
	order := tc.RatioOrder()
	rank := make([]int, len(order))
	for k, j := range order {
		rank[j] = k
	}
	lists := make([][]int, tc.NumMachines())
	backing := make([]int, a.NumAssigned())
	if allocs := testing.AllocsPerRun(8, func() { a.FillOrderedLists(lists, backing, order) }); allocs > 1 {
		t.Errorf("FillOrderedLists: %v allocations per build, want <= 1 (counts)", allocs)
	}
	for i, list := range lists {
		var jobs []int
		for k, entry := range list {
			j := JobOf(entry)
			if entry != int(uint64(rank[j])<<32|uint64(j)) {
				t.Fatalf("machine %d: entry %#x for job %d of rank %d", i, entry, j, rank[j])
			}
			if k > 0 && list[k-1] >= entry {
				t.Fatalf("machine %d: entries not increasing at %d", i, k)
			}
			jobs = append(jobs, j)
		}
		slices.Sort(jobs)
		if want := a.Jobs(i); !slices.Equal(jobs, want) {
			t.Fatalf("machine %d: list holds %v, Jobs scan %v", i, jobs, want)
		}
	}
}

// TestFillOrderedListsSpareRoom checks how FillOrderedLists spreads backing
// beyond the assigned jobs: each list gets spare·count/assigned of it
// (rounded down) as capacity, empty lists get none, the lists hold the
// same entries as with exact backing, and a list filled to its capacity
// overwrites no other list. An empty assignment with spare backing builds
// empty lists.
func TestFillOrderedListsSpareRoom(t *testing.T) {
	model, _ := NewIdentical(9, make([]Cost, 1000))
	machineOf := make([]int, model.NumJobs())
	for j := range machineOf {
		machineOf[j] = (j * j) % 8 // machine 8 and some others stay empty
		if j%7 == 0 {
			machineOf[j] = -1
		}
	}
	a := mustFromMachineOf(t, model, machineOf)
	exact := make([][]int, model.NumMachines())
	a.FillOrderedLists(exact, make([]int, a.NumAssigned()), nil)
	for _, spare := range []int{0, 1, 7, a.NumAssigned() / 4, 3 * a.NumAssigned()} {
		lists := make([][]int, model.NumMachines())
		a.FillOrderedLists(lists, make([]int, a.NumAssigned()+spare), nil)
		for i, list := range lists {
			if !slices.Equal(list, exact[i]) {
				t.Fatalf("spare %d: machine %d holds %v, with exact backing %v", spare, i, list, exact[i])
			}
			if want := len(list) + spare*len(list)/a.NumAssigned(); cap(list) != want {
				t.Fatalf("spare %d: machine %d has %d jobs and capacity %d, want %d", spare, i, len(list), cap(list), want)
			}
		}
		for i := range lists {
			for len(lists[i]) < cap(lists[i]) {
				lists[i] = append(lists[i], -1-i)
			}
		}
		for i, list := range lists {
			if !slices.Equal(list[:len(exact[i])], exact[i]) || slices.ContainsFunc(list[len(exact[i]):], func(e int) bool { return e != -1-i }) {
				t.Fatalf("spare %d: filling every list to its capacity left machine %d with %v", spare, i, list)
			}
		}
	}
	empty := NewAssignment(model)
	lists := make([][]int, model.NumMachines())
	empty.FillOrderedLists(lists, make([]int, 10), nil)
	for i, list := range lists {
		if len(list) != 0 || cap(list) != 0 {
			t.Fatalf("empty assignment: machine %d list %v with capacity %d", i, list, cap(list))
		}
	}
}

// TestFromListsRoundTrip rebuilds an assignment from the job lists
// FillOrderedLists writes, in increasing job order and, on a 64-bit int, in
// the ratio order: every job must land on its machine, with the loads and
// the assigned count of the original, unassigned jobs on no machine. It
// must reject a job listed twice, on one list or on two, an entry whose
// job is out of range, and more lists than machines.
func TestFromListsRoundTrip(t *testing.T) {
	p0 := make([]Cost, 300)
	p1 := make([]Cost, 300)
	for j := range p0 {
		p0[j], p1[j] = Cost((j*37)%23), Cost(1+(j*11)%19)
	}
	tc, _ := NewTwoCluster(4, 3, p0, p1)
	machineOf := make([]int, tc.NumJobs())
	for j := range machineOf {
		machineOf[j] = (j * 5) % 7
		if j%9 == 0 {
			machineOf[j] = -1
		}
	}
	a := mustFromMachineOf(t, tc, machineOf)
	orders := [][]uint32{nil}
	if strconv.IntSize == 64 {
		orders = append(orders, tc.RatioOrder())
	}
	lists := make([][]int, tc.NumMachines())
	for _, order := range orders {
		a.FillOrderedLists(lists, make([]int, a.NumAssigned()), order)
		b, err := FromLists(tc, lists)
		if err != nil {
			t.Fatal(err)
		}
		if !b.Equal(a) || !slices.Equal(b.Loads(), a.Loads()) || b.NumAssigned() != a.NumAssigned() {
			t.Fatalf("order %d jobs: rebuilt %v (loads %v, %d assigned), original %v (loads %v, %d assigned)",
				len(order), b, b.Loads(), b.NumAssigned(), a, a.Loads(), a.NumAssigned())
		}
	}

	bad := map[string][][]int{
		"twice on one list":        {{1, 2, 2}},
		"twice on two lists":       {{1, 2}, {3}, {2}},
		"job out of range":         {{1}, {300}},
		"more lists than machines": make([][]int, tc.NumMachines()+1),
		"negative entry":           {{-1}},
	}
	for name, lists := range bad {
		if _, err := FromLists(tc, lists); err == nil {
			t.Errorf("%s: FromLists accepted %v", name, lists)
		}
	}
}
