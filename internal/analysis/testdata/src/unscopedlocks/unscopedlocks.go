// Package unscopedlocks is outside the concurrency scope: the worker-path
// frozen write here is a finding in a shardgossip package and silent in
// this one.
package unscopedlocks

type table struct {
	//hetlb:frozen
	rows []int
}

type pool struct {
	tab   *table
	start []chan struct{}
}

func (p *pool) run() {
	for i := range p.start {
		go p.worker(i)
	}
}

func (p *pool) worker(i int) {
	for range p.start[i] {
		p.tab.rows[i] = 0
	}
}
