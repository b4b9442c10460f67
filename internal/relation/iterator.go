package relation

// Cursor is the trie-cursor contract every access path in this package
// implements (CSRCursor, OverlayCursor): Open descends to the first child of
// the current node, Up pops back, Next and SeekGE move within the current
// level in increasing key order (no-ops at the end of a level; callers check
// AtEnd). The engines do not go through it: they hold the one concrete
// cursor, *OverlayCursor, directly. It serves the reference walks that
// compare the access paths with each other.
type Cursor interface {
	Open()
	Up()
	Next()
	SeekGE(v int64)
	AtEnd() bool
	Key() int64
}
