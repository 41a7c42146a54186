// Package shardgossip (under markbad) carries a deliberately misplaced
// //hetlb:frozen mark: the verb governs struct field lines only, and a mark
// that lands anywhere else is a finding. Checked by a direct unit test (the
// diagnostic lands on the annotation's own line, where a want comment
// cannot coexist).
package shardgossip

//hetlb:frozen
var notAStruct int

func init() {
	_ = notAStruct
}
