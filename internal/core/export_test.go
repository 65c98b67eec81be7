package core

import "commute/internal/analysis/symbolic"

// CommuteSymbolic is the symbolic half of the Figure 11 test with no
// verdict memo in front of it.
var CommuteSymbolic = commuteSymbolic

// MemoCounts captures the analysis memo, which AnalyzeAll drops, and
// returns a reader of its counters: method bodies executed, first runs
// memoized, pair verdicts memoized. ok is false once the memo is gone.
func (a *Analysis) MemoCounts() (read func() (executions, firstRuns, pairEntries int), ok bool) {
	a.mu.Lock()
	m := a.memo
	a.mu.Unlock()
	if m == nil {
		return nil, false
	}
	return func() (int, int, int) { return m.sym.Executions(), m.sym.FirstRuns(), m.pairs.Len() }, true
}

// Table returns the table the analysis interns its symbolic expressions
// in, or nil once the analysis has dropped its memo.
func (a *Analysis) Table() *symbolic.Table {
	a.mu.Lock()
	m := a.memo
	a.mu.Unlock()
	if m == nil {
		return nil
	}
	return m.sym.Env(nil, nil).Table()
}
