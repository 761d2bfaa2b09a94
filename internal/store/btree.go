package store

import (
	"sort"

	"cgdqp/internal/expr"
)

// B+ tree secondary index. Keys are either int64 (TInt/TDate/TBool
// payloads) or dictionary-interned strings; each key holds the row ids
// of every matching row in insertion order, so a range scan yields rows
// in (key, insertion) order — identically for the in-memory and the
// persistent backend, which keeps plans and results byte-identical
// across the store axis. NULLs are not indexed: no range or equality
// predicate matches NULL, so the residual predicate never needs them.
//
// The tree is an in-memory structure rebuilt on open by scanning the
// valid page prefix (the WAL recovers the pages first, the indexes
// follow from them — they carry no separate durability).
const btreeOrder = 64 // max children per interior node / keys per leaf

// Key is one index key: the int64 lane or the interned string lane.
type Key struct {
	I   int64
	S   string
	Str bool
}

func keyLess(a, b Key) bool {
	if a.Str {
		return a.S < b.S
	}
	return a.I < b.I
}

func keyEq(a, b Key) bool {
	if a.Str {
		return a.S == b.S
	}
	return a.I == b.I
}

// valueKey converts a value into an index key; ok is false for NULLs
// and non-indexable types (which are simply not indexed).
func valueKey(v expr.Value, str bool) (Key, bool) {
	if v.IsNull() {
		return Key{}, false
	}
	if str {
		if v.T != expr.TString {
			return Key{}, false
		}
		return Key{S: v.S, Str: true}, true
	}
	switch v.T {
	case expr.TInt, expr.TDate, expr.TBool:
		return Key{I: v.I}, true
	}
	return Key{}, false
}

// IndexableType reports whether a column of type t can carry a B+ tree
// index (int64-class or string keys).
func IndexableType(t expr.Type) bool {
	switch t {
	case expr.TInt, expr.TDate, expr.TBool, expr.TString:
		return true
	}
	return false
}

// bnode is one tree node; interior nodes route by keys[i] = smallest
// key in kids[i+1], leaves hold the per-key row-id postings.
type bnode struct {
	leaf bool
	keys []Key
	kids []*bnode  // interior
	vals [][]int32 // leaf postings, insertion order
	next *bnode    // leaf chain
}

// BTree is one secondary index over a single column.
type BTree struct {
	str   bool
	root  *bnode
	first *bnode
	keys  int               // distinct key count
	dict  map[string]string // string-key dictionary: one canonical copy per distinct key
}

// NewBTree creates an empty index with int64 or string keys.
func NewBTree(stringKeys bool) *BTree {
	leaf := &bnode{leaf: true}
	t := &BTree{str: stringKeys, root: leaf, first: leaf}
	if stringKeys {
		t.dict = map[string]string{}
	}
	return t
}

// Len returns the number of distinct keys.
func (t *BTree) Len() int { return t.keys }

// InsertValue indexes row id under value v; NULLs and lane mismatches
// are skipped.
func (t *BTree) InsertValue(v expr.Value, id int32) {
	k, ok := valueKey(v, t.str)
	if !ok {
		return
	}
	t.Insert(k, id)
}

// Insert indexes row id under key k.
func (t *BTree) Insert(k Key, id int32) {
	if t.str {
		if s, ok := t.dict[k.S]; ok {
			k.S = s
		} else {
			t.dict[k.S] = k.S
		}
	}
	midKey, right := t.insertInto(t.root, k, id)
	if right != nil {
		t.root = &bnode{keys: []Key{midKey}, kids: []*bnode{t.root, right}}
	}
}

// insertInto descends to the leaf for k; on overflow the node splits
// and the separator plus new right sibling bubble up.
func (t *BTree) insertInto(n *bnode, k Key, id int32) (Key, *bnode) {
	if n.leaf {
		i := sort.Search(len(n.keys), func(i int) bool { return !keyLess(n.keys[i], k) })
		if i < len(n.keys) && keyEq(n.keys[i], k) {
			n.vals[i] = append(n.vals[i], id)
			return Key{}, nil
		}
		n.keys = append(n.keys, Key{})
		copy(n.keys[i+1:], n.keys[i:])
		n.keys[i] = k
		n.vals = append(n.vals, nil)
		copy(n.vals[i+1:], n.vals[i:])
		n.vals[i] = []int32{id}
		t.keys++
		if len(n.keys) <= btreeOrder {
			return Key{}, nil
		}
		return t.splitLeaf(n)
	}
	i := sort.Search(len(n.keys), func(i int) bool { return keyLess(k, n.keys[i]) })
	midKey, right := t.insertInto(n.kids[i], k, id)
	if right == nil {
		return Key{}, nil
	}
	n.keys = append(n.keys, Key{})
	copy(n.keys[i+1:], n.keys[i:])
	n.keys[i] = midKey
	n.kids = append(n.kids, nil)
	copy(n.kids[i+2:], n.kids[i+1:])
	n.kids[i+1] = right
	if len(n.kids) <= btreeOrder {
		return Key{}, nil
	}
	return t.splitInterior(n)
}

func (t *BTree) splitLeaf(n *bnode) (Key, *bnode) {
	mid := len(n.keys) / 2
	right := &bnode{
		leaf: true,
		keys: append([]Key(nil), n.keys[mid:]...),
		vals: append([][]int32(nil), n.vals[mid:]...),
		next: n.next,
	}
	n.keys = n.keys[:mid:mid]
	n.vals = n.vals[:mid:mid]
	n.next = right
	return right.keys[0], right
}

func (t *BTree) splitInterior(n *bnode) (Key, *bnode) {
	mid := len(n.keys) / 2
	sep := n.keys[mid]
	right := &bnode{
		keys: append([]Key(nil), n.keys[mid+1:]...),
		kids: append([]*bnode(nil), n.kids[mid+1:]...),
	}
	n.keys = n.keys[:mid:mid]
	n.kids = n.kids[: mid+1 : mid+1]
	return sep, right
}

// Range walks keys in [lo, hi] in order (nil bound = unbounded,
// inclusivity per flag), calling fn with each key's postings until fn
// returns false.
func (t *BTree) Range(lo, hi *Key, loInc, hiInc bool, fn func(k Key, ids []int32) bool) {
	n := t.root
	for !n.leaf {
		i := 0
		if lo != nil {
			i = sort.Search(len(n.keys), func(i int) bool { return keyLess(*lo, n.keys[i]) })
		}
		n = n.kids[i]
	}
	start := 0
	if lo != nil {
		start = sort.Search(len(n.keys), func(i int) bool { return !keyLess(n.keys[i], *lo) })
	}
	for n != nil {
		for i := start; i < len(n.keys); i++ {
			k := n.keys[i]
			if lo != nil && !loInc && keyEq(k, *lo) {
				continue
			}
			if hi != nil {
				if keyLess(*hi, k) || (!hiInc && keyEq(k, *hi)) {
					return
				}
			}
			if !fn(k, n.vals[i]) {
				return
			}
		}
		n = n.next
		start = 0
	}
}

// Lookup returns the postings for key k (nil when absent).
func (t *BTree) Lookup(k Key) []int32 {
	n := t.root
	for !n.leaf {
		i := sort.Search(len(n.keys), func(i int) bool { return keyLess(k, n.keys[i]) })
		n = n.kids[i]
	}
	i := sort.Search(len(n.keys), func(i int) bool { return !keyLess(n.keys[i], k) })
	if i < len(n.keys) && keyEq(n.keys[i], k) {
		return n.vals[i]
	}
	return nil
}

// LookupValue returns the postings for value v.
func (t *BTree) LookupValue(v expr.Value) []int32 {
	k, ok := valueKey(v, t.str)
	if !ok {
		return nil
	}
	return t.Lookup(k)
}

// MinMax returns the smallest and largest key; ok is false on an empty
// index.
func (t *BTree) MinMax() (lo, hi Key, ok bool) {
	if t.keys == 0 {
		return Key{}, Key{}, false
	}
	n := t.first
	for n != nil && len(n.keys) == 0 {
		n = n.next
	}
	if n == nil {
		return Key{}, Key{}, false
	}
	lo = n.keys[0]
	m := t.root
	for !m.leaf {
		m = m.kids[len(m.kids)-1]
	}
	hi = m.keys[len(m.keys)-1]
	return lo, hi, true
}

// RangeIDs collects the row ids of every key in [lo, hi] (nil bound =
// unbounded, inclusivity per flag) in (key, insertion) order; ok is
// false when a bound's type does not fit the key lane.
func RangeIDs(t *BTree, lo, hi *expr.Value, loInc, hiInc bool) ([]int32, bool) {
	var loK, hiK *Key
	if lo != nil {
		k, ok := valueKey(*lo, t.str)
		if !ok {
			return nil, false
		}
		loK = &k
	}
	if hi != nil {
		k, ok := valueKey(*hi, t.str)
		if !ok {
			return nil, false
		}
		hiK = &k
	}
	var ids []int32
	t.Range(loK, hiK, loInc, hiInc, func(_ Key, post []int32) bool {
		ids = append(ids, post...)
		return true
	})
	return ids, true
}

// KeyValue converts k back into an expr.Value of column type t.
func KeyValue(k Key, colType expr.Type) expr.Value {
	if k.Str {
		return expr.NewString(k.S)
	}
	return expr.Value{T: colType, I: k.I}
}
