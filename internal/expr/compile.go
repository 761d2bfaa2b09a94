package expr

// Compiled columnar expression kernels. Compile translates a bound
// expression tree once into a graph of typed vector operators that
// evaluate a whole batch per call, using the static column types of the
// operator's input schema to pick int64/float64/string/bool lanes (TypeOf
// states the type of every node). A node the compiler has no vector
// operator for (CASE, mixed or incomparable operand types) becomes an
// interpreter node that runs the row interpreter one row at a time, so
// a kernel always produces exactly the values Eval would — including
// the type tags of NULL results — and fails where Eval fails.

import (
	"fmt"
	"slices"
	"strings"
)

// VecSource is the columnar view a kernel evaluates against: per-column
// vectors. ColVec reports false for a column the source does not carry.
type VecSource interface {
	ColVec(idx int) (*Vec, bool)
	Len() int
}

// kNode is one compiled operator: it evaluates the rows chosen by sel
// (all src rows when sel is nil) into a dense vector of length n.
// Nodes own their output scratch, so a kernel is not safe for
// concurrent use; each executor operator compiles its own instance.
type kNode interface {
	eval(src VecSource, sel []int32, n int) (*Vec, error)
}

// Kernel is a compiled scalar expression.
type Kernel struct{ root kNode }

// Compile compiles a bound expression against the static column types
// of the input schema (indexed by Col.Index).
func Compile(e Expr, types []Type) *Kernel {
	return &Kernel{root: compiler{types: types}.compile(e)}
}

// Interpret compiles e as one interpreter node: the kernel that runs
// the row interpreter over the whole expression.
func Interpret(e Expr, types []Type) *Kernel {
	return &Kernel{root: compiler{types: types}.fallback(e)}
}

// EvalVec evaluates the kernel over the selected rows of src, returning
// a dense vector of len(sel) results (src.Len() when sel is nil).
func (k *Kernel) EvalVec(src VecSource, sel []int32) (*Vec, error) {
	n := len(sel)
	if sel == nil {
		n = src.Len()
	}
	return k.root.eval(src, sel, n)
}

// PredKernel is a compiled filter predicate evaluated conjunct at a
// time: each conjunct shrinks the selection before the next runs, so
// later conjuncts only touch surviving rows. Rows are kept only when
// every conjunct is TRUE (SQL WHERE semantics: NULL drops the row),
// which matches the interpreter's short-circuit conjunction exactly.
type PredKernel struct{ conjs []kNode }

// CompilePred compiles a filter predicate, one kernel per conjunct.
func CompilePred(e Expr, types []Type) *PredKernel {
	c := compiler{types: types}
	p := &PredKernel{}
	for _, cj := range Conjuncts(e) {
		p.conjs = append(p.conjs, c.truth(cj))
	}
	return p
}

// InterpretPred compiles a filter predicate as one interpreter node.
func InterpretPred(e Expr, types []Type) *PredKernel {
	if e == nil {
		return &PredKernel{}
	}
	return &PredKernel{conjs: []kNode{newFallback(e, TBool, true)}}
}

// truth compiles a conjunct onto the bool lane: a NULL-typed one is all
// NULL, one of another type is read by EvalBool's rule.
func (c compiler) truth(e Expr) kNode {
	switch c.typeOf(e) {
	case TBool:
		return c.compile(e)
	case TNull:
		return &kAllNull{children: []kNode{c.compile(e)}, t: TBool}
	}
	return newFallback(e, TBool, true)
}

// emptySel is the canonical non-nil empty selection: Select must never
// return nil for "no rows", because callers treat a nil selection as
// "all rows".
var emptySel = make([]int32, 0)

// Select filters sel through the predicate and returns the surviving
// row indexes. A nil sel means all of src's rows (an empty non-nil sel
// selects nothing); the result is then built in buf. A non-nil sel is
// compacted in place. The returned selection is never nil.
func (p *PredKernel) Select(src VecSource, sel []int32, buf []int32) ([]int32, error) {
	cur := sel
	for _, cj := range p.conjs {
		n := len(cur)
		if cur == nil {
			n = src.Len()
		}
		pass, err := cj.eval(src, cur, n)
		if err != nil {
			return nil, err
		}
		if cur == nil {
			out := buf[:0]
			for i := 0; i < pass.N; i++ {
				if pass.B.Get(i) && !pass.IsNullAt(i) {
					out = append(out, int32(i))
				}
			}
			cur = out
		} else {
			w := 0
			for j, si := range cur {
				if pass.B.Get(j) && !pass.IsNullAt(j) {
					cur[w] = si
					w++
				}
			}
			cur = cur[:w]
		}
		if len(cur) == 0 {
			return emptySel, nil
		}
	}
	if cur == nil {
		// A conjunct-free predicate passes everything.
		cur = buf[:0]
		for i, n := 0, src.Len(); i < n; i++ {
			cur = append(cur, int32(i))
		}
		if cur == nil {
			cur = emptySel
		}
	}
	return cur, nil
}

// compiler carries the static input-column types through compilation.
type compiler struct{ types []Type }

func (c compiler) colType(col *Col) Type {
	if col.Index < 0 || col.Index >= len(c.types) {
		return TNull
	}
	return c.types[col.Index]
}

func (c compiler) typeOf(e Expr) Type { return TypeOf(e, c.colType) }

func (c compiler) fallback(e Expr) kNode {
	return newFallback(e, c.typeOf(e), false)
}

func isFallback(n kNode) bool {
	_, ok := n.(*kFallback)
	return ok
}

func intClass(t Type) bool { return t == TInt || t == TDate }

func (c compiler) compile(e Expr) kNode {
	switch n := e.(type) {
	case *Col:
		return &kCol{idx: n.Index, t: c.colType(n)}
	case *Const:
		return &kConst{v: n.Val}
	case *Cmp:
		return c.compileCmp(n)
	case *And:
		l, r, ok := c.compileBoolPair(n.L, n.R)
		if !ok || (isFallback(l) && isFallback(r)) {
			return c.fallback(e)
		}
		return &kAnd{l: l, r: r}
	case *Or:
		l, r, ok := c.compileBoolPair(n.L, n.R)
		if !ok || (isFallback(l) && isFallback(r)) {
			return c.fallback(e)
		}
		return &kOr{l: l, r: r}
	case *Not:
		switch c.typeOf(n.E) {
		case TBool:
			return &kNot{c: c.compile(n.E)}
		case TNull:
			return &kAllNull{children: []kNode{c.compile(n.E)}, t: TBool}
		}
		return c.fallback(e)
	case *Arith:
		return c.compileArith(n)
	case *Concat:
		return c.compileConcat(n)
	case *Like:
		switch c.typeOf(n.E) {
		case TString:
			return newKLike(c.compile(n.E), n.Pattern, n.Negated)
		case TNull:
			return &kAllNull{children: []kNode{c.compile(n.E)}, t: TBool}
		}
		return c.fallback(e)
	case *In:
		return c.compileIn(n)
	case *Between:
		return c.compileBetween(n)
	case *IsNull:
		child := c.compile(n.E)
		if isFallback(child) {
			return c.fallback(e)
		}
		return &kIsNull{c: child, negated: n.Negated}
	case *Call:
		return c.compileCall(n)
	}
	// CASE (lazy branch evaluation), aggregates, unknown nodes.
	return c.fallback(e)
}

// compileBoolPair compiles the two operands of a logical connective onto
// bool lanes. Statically NULL operands become all-NULL bool vectors
// (Kleene logic handles them); operands of any other non-bool type make
// the connective fall back (the interpreter treats such operands as
// FALSE-or-NULL, which the kernels do not model).
func (c compiler) compileBoolPair(l, r Expr) (kNode, kNode, bool) {
	boolish := func(t Type) bool { return t == TBool || t == TNull }
	lt, rt := c.typeOf(l), c.typeOf(r)
	if !boolish(lt) || !boolish(rt) {
		return nil, nil, false
	}
	ln, rn := c.compile(l), c.compile(r)
	if lt == TNull {
		ln = &kAllNull{children: []kNode{ln}, t: TBool}
	}
	if rt == TNull {
		rn = &kAllNull{children: []kNode{rn}, t: TBool}
	}
	return ln, rn, true
}

func (c compiler) compileCmp(n *Cmp) kNode {
	lt, rt := c.typeOf(n.L), c.typeOf(n.R)
	if lt == TNull || rt == TNull {
		return &kAllNull{children: []kNode{c.compile(n.L), c.compile(n.R)}, t: TBool}
	}
	l, r := c.compile(n.L), c.compile(n.R)
	switch {
	case lt == TString && rt == TString:
		return &kCmp{op: n.Op, lane: TString, l: l, r: r}
	case lt == TBool && rt == TBool:
		return &kCmp{op: n.Op, lane: TInt, l: &kCastInt{c: l}, r: &kCastInt{c: r}}
	case intClass(lt) && intClass(rt):
		return &kCmp{op: n.Op, lane: TInt, l: l, r: r}
	case lt.Numeric() && rt.Numeric():
		return &kCmp{op: n.Op, lane: TFloat, l: c.toFloat(l, lt), r: c.toFloat(r, rt)}
	}
	// Incomparable operand types: the interpreter raises a per-row error
	// (unless a side is NULL), so keep its exact behaviour.
	return c.fallback(n)
}

func (c compiler) compileArith(n *Arith) kNode {
	lt, rt := c.typeOf(n.L), c.typeOf(n.R)
	if lt == TNull || rt == TNull {
		return &kAllNull{children: []kNode{c.compile(n.L), c.compile(n.R)}, t: TFloat}
	}
	arithable := func(t Type) bool { return t.Numeric() || t == TBool }
	if !arithable(lt) || !arithable(rt) {
		return c.fallback(n)
	}
	l, r := c.compile(n.L), c.compile(n.R)
	if lt == TInt && rt == TInt && n.Op != Div {
		return &kArith{op: n.Op, intLane: true, l: l, r: r}
	}
	return &kArith{op: n.Op, l: c.toFloat(l, lt), r: c.toFloat(r, rt)}
}

func (c compiler) compileConcat(n *Concat) kNode {
	lt, rt := c.typeOf(n.L), c.typeOf(n.R)
	if lt == TNull || rt == TNull {
		return &kAllNull{children: []kNode{c.compile(n.L), c.compile(n.R)}, t: TString}
	}
	if lt != TString || rt != TString {
		// The interpreter raises a per-row type error; keep its behaviour.
		return c.fallback(n)
	}
	return &kConcat{l: c.compile(n.L), r: c.compile(n.R)}
}

func (c compiler) compileIn(n *In) kNode {
	t := c.typeOf(n.E)
	if t == TNull {
		return &kAllNull{children: []kNode{c.compile(n.E)}, t: TBool}
	}
	child := c.compile(n.E)
	k := &kIn{c: child, negated: n.Negated, lane: t}
	// Items the child is incomparable with are skipped, exactly as the
	// interpreter skips Compare errors while scanning the list.
	for _, it := range n.List {
		if it.IsNull() {
			continue
		}
		switch {
		case intClass(t):
			if intClass(it.T) {
				k.intItems = append(k.intItems, it.I)
			} else if it.T == TFloat {
				k.fItems = append(k.fItems, it.F)
			}
		case t == TFloat:
			if it.T.Numeric() {
				k.fItems = append(k.fItems, it.Float())
			}
		case t == TString:
			if it.T == TString {
				k.sItems = append(k.sItems, it.S)
			}
		case t == TBool:
			if it.T == TBool {
				k.intItems = append(k.intItems, it.I)
			}
		}
	}
	if t == TBool {
		k.lane = TInt
		k.c = &kCastInt{c: child}
	}
	return k
}

func (c compiler) compileBetween(n *Between) kNode {
	t := c.typeOf(n.E)
	if t == TNull {
		return &kAllNull{children: []kNode{c.compile(n.E)}, t: TBool}
	}
	if n.Lo.IsNull() || n.Hi.IsNull() {
		return c.fallback(n) // Compare against NULL bounds errors
	}
	k := &kBetween{c: c.compile(n.E), lane: t}
	switch {
	case t == TString && n.Lo.T == TString && n.Hi.T == TString:
		k.loS, k.hiS = n.Lo.S, n.Hi.S
	case intClass(t) && n.Lo.T.Numeric() && n.Hi.T.Numeric():
		k.lane = TInt
		if n.Lo.T == TFloat {
			k.loFloat, k.loF = true, n.Lo.F
		} else {
			k.loI = n.Lo.I
		}
		if n.Hi.T == TFloat {
			k.hiFloat, k.hiF = true, n.Hi.F
		} else {
			k.hiI = n.Hi.I
		}
	case t == TFloat && n.Lo.T.Numeric() && n.Hi.T.Numeric():
		k.loFloat, k.hiFloat = true, true
		k.loF, k.hiF = n.Lo.Float(), n.Hi.Float()
	default:
		return c.fallback(n)
	}
	return k
}

func (c compiler) compileCall(n *Call) kNode {
	t := c.typeOf(n.Arg)
	if t == TNull {
		return &kAllNull{children: []kNode{c.compile(n.Arg)}, t: TInt}
	}
	switch n.Fn {
	case FnYear, FnMonth, FnDay:
		if t == TDate {
			return &kCall{fn: n.Fn, c: c.compile(n.Arg)}
		}
	case FnAbs:
		if t.Numeric() {
			return &kCall{fn: n.Fn, c: c.compile(n.Arg)}
		}
	}
	return c.fallback(n)
}

// toFloat coerces a node of static type t onto the float lane.
func (c compiler) toFloat(n kNode, t Type) kNode {
	if t == TFloat {
		return n
	}
	return &kCastFloat{c: n}
}

// ---- leaf nodes ----

type kCol struct {
	idx int
	t   Type
	out Vec
}

func (k *kCol) eval(src VecSource, sel []int32, n int) (*Vec, error) {
	col, ok := src.ColVec(k.idx)
	switch {
	case !ok:
		return nil, fmt.Errorf("expr: column %d not available", k.idx)
	case col.T != k.t && k.t != TNull:
		return nil, fmt.Errorf("%w: column %d holds %s values, typed %s", ErrLane, k.idx, col.T, k.t)
	}
	if sel == nil {
		return col, nil
	}
	k.out.reset(k.t, n)
	switch k.t {
	case TInt, TDate:
		for j, si := range sel {
			k.out.I[j] = col.I[si]
		}
	case TFloat:
		for j, si := range sel {
			k.out.F[j] = col.F[si]
		}
	case TString:
		for j, si := range sel {
			k.out.S[j] = col.S[si]
		}
	case TBool:
		for j, si := range sel {
			if col.B.Get(int(si)) {
				k.out.B.Set(j)
			}
		}
	}
	if col.Null != nil {
		var nulls Bitmap
		for j, si := range sel {
			if col.Null.Get(int(si)) {
				if nulls == nil {
					nulls = k.out.ensureNull()
				}
				nulls.Set(j)
			}
		}
	}
	return &k.out, nil
}

type kConst struct {
	v      Value
	out    Vec
	filled int
}

func (k *kConst) eval(src VecSource, sel []int32, n int) (*Vec, error) {
	if n > k.filled {
		t := k.v.T
		if k.v.IsNull() {
			t = TNull
		}
		k.out.reset(t, n)
		k.out.NullT = k.v.T
		if k.v.IsNull() {
			nulls := k.out.ensureNull()
			for w := range nulls {
				nulls[w] = ^uint64(0)
			}
		} else {
			switch t {
			case TInt, TDate:
				for i := range k.out.I {
					k.out.I[i] = k.v.I
				}
			case TFloat:
				for i := range k.out.F {
					k.out.F[i] = k.v.F
				}
			case TString:
				for i := range k.out.S {
					k.out.S[i] = k.v.S
				}
			case TBool:
				if k.v.I != 0 {
					for w := range k.out.B {
						k.out.B[w] = ^uint64(0)
					}
				}
			}
		}
		k.filled = n
		return &k.out, nil
	}
	// Storage already broadcast wide enough: narrow the view.
	k.out.N = n
	switch k.out.T {
	case TInt, TDate:
		k.out.I = k.out.I[:n]
	case TFloat:
		k.out.F = k.out.F[:n]
	case TString:
		k.out.S = k.out.S[:n]
	}
	return &k.out, nil
}

// ---- cast nodes ----

type kCastFloat struct {
	c   kNode
	out Vec
}

func (k *kCastFloat) eval(src VecSource, sel []int32, n int) (*Vec, error) {
	cv, err := k.c.eval(src, sel, n)
	if err != nil {
		return nil, err
	}
	k.out.reset(TFloat, n)
	switch cv.T {
	case TInt, TDate:
		for i := 0; i < n; i++ {
			k.out.F[i] = float64(cv.I[i])
		}
	case TBool:
		// reset reuses the lane without zeroing: write every slot.
		for i := 0; i < n; i++ {
			if cv.B.Get(i) {
				k.out.F[i] = 1
			} else {
				k.out.F[i] = 0
			}
		}
	case TFloat:
		copy(k.out.F, cv.F)
	}
	k.out.Null = cv.Null
	return &k.out, nil
}

type kCastInt struct {
	c   kNode
	out Vec
}

func (k *kCastInt) eval(src VecSource, sel []int32, n int) (*Vec, error) {
	cv, err := k.c.eval(src, sel, n)
	if err != nil {
		return nil, err
	}
	k.out.reset(TInt, n)
	switch cv.T {
	case TBool:
		// reset reuses the lane without zeroing: write every slot.
		for i := 0; i < n; i++ {
			if cv.B.Get(i) {
				k.out.I[i] = 1
			} else {
				k.out.I[i] = 0
			}
		}
	case TInt, TDate:
		copy(k.out.I, cv.I)
	}
	k.out.Null = cv.Null
	return &k.out, nil
}

// ---- comparison ----

type kCmp struct {
	op   CmpOp
	lane Type // TInt (integer space), TFloat, TString
	l, r kNode
	out  Vec
}

func (k *kCmp) eval(src VecSource, sel []int32, n int) (*Vec, error) {
	lv, err := k.l.eval(src, sel, n)
	if err != nil {
		return nil, err
	}
	rv, err := k.r.eval(src, sel, n)
	if err != nil {
		return nil, err
	}
	k.out.reset(TBool, n)
	switch k.lane {
	case TInt:
		cmpSetBits(k.op, lv.I[:n], rv.I[:n], k.out.B)
	case TFloat:
		cmpSetBits(k.op, lv.F[:n], rv.F[:n], k.out.B)
	case TString:
		cmpSetBits(k.op, lv.S[:n], rv.S[:n], k.out.B)
	}
	unionNulls(&k.out, lv.Null, rv.Null)
	return &k.out, nil
}

// cmpSetBits sets out bit i when a[i] op b[i], every operator spelled
// with < and > as Value.Compare's three-way compare is.
func cmpSetBits[T int64 | float64 | string](op CmpOp, a, b []T, out Bitmap) {
	switch op {
	case EQ:
		for i := range a {
			if !(a[i] < b[i]) && !(a[i] > b[i]) {
				out.Set(i)
			}
		}
	case NE:
		for i := range a {
			if a[i] < b[i] || a[i] > b[i] {
				out.Set(i)
			}
		}
	case LT:
		for i := range a {
			if a[i] < b[i] {
				out.Set(i)
			}
		}
	case LE:
		for i := range a {
			if !(a[i] > b[i]) {
				out.Set(i)
			}
		}
	case GT:
		for i := range a {
			if a[i] > b[i] {
				out.Set(i)
			}
		}
	case GE:
		for i := range a {
			if !(a[i] < b[i]) {
				out.Set(i)
			}
		}
	}
}

// unionNulls ORs a|b into dst.Null, preserving null bits dst already
// set (e.g. division by zero). Both nil leaves dst.Null untouched.
func unionNulls(dst *Vec, a, b Bitmap) {
	if a == nil && b == nil {
		return
	}
	nulls := dst.ensureNull()
	for w := range nulls {
		nulls[w] |= a.word(w) | b.word(w)
	}
}

// ---- three-valued logic ----

type kAnd struct {
	l, r kNode
	out  Vec
}

func (k *kAnd) eval(src VecSource, sel []int32, n int) (*Vec, error) {
	lv, err := k.l.eval(src, sel, n)
	if err != nil {
		return nil, err
	}
	rv, err := k.r.eval(src, sel, n)
	if err != nil {
		return nil, err
	}
	k.out.reset(TBool, n)
	nw := bitmapWords(n)
	if lv.Null == nil && rv.Null == nil {
		for w := 0; w < nw; w++ {
			k.out.B[w] = lv.B[w] & rv.B[w]
		}
		return &k.out, nil
	}
	nulls := k.out.ensureNull()
	for w := 0; w < nw; w++ {
		ln, rn := lv.Null.word(w), rv.Null.word(w)
		lt, rt := lv.B[w]&^ln, rv.B[w]&^rn
		lf, rf := ^lv.B[w]&^ln, ^rv.B[w]&^rn
		k.out.B[w] = lt & rt
		nulls[w] = (ln | rn) &^ (lf | rf)
	}
	return &k.out, nil
}

type kOr struct {
	l, r kNode
	out  Vec
}

func (k *kOr) eval(src VecSource, sel []int32, n int) (*Vec, error) {
	lv, err := k.l.eval(src, sel, n)
	if err != nil {
		return nil, err
	}
	rv, err := k.r.eval(src, sel, n)
	if err != nil {
		return nil, err
	}
	k.out.reset(TBool, n)
	nw := bitmapWords(n)
	if lv.Null == nil && rv.Null == nil {
		for w := 0; w < nw; w++ {
			k.out.B[w] = lv.B[w] | rv.B[w]
		}
		return &k.out, nil
	}
	nulls := k.out.ensureNull()
	for w := 0; w < nw; w++ {
		ln, rn := lv.Null.word(w), rv.Null.word(w)
		lt, rt := lv.B[w]&^ln, rv.B[w]&^rn
		k.out.B[w] = lt | rt
		nulls[w] = (ln | rn) &^ (lt | rt)
	}
	return &k.out, nil
}

type kNot struct {
	c   kNode
	out Vec
}

func (k *kNot) eval(src VecSource, sel []int32, n int) (*Vec, error) {
	cv, err := k.c.eval(src, sel, n)
	if err != nil {
		return nil, err
	}
	k.out.reset(TBool, n)
	nw := bitmapWords(n)
	for w := 0; w < nw; w++ {
		k.out.B[w] = ^cv.B[w] &^ cv.Null.word(w)
	}
	k.out.Null = cv.Null
	return &k.out, nil
}

// ---- arithmetic ----

type kArith struct {
	op      ArithOp
	intLane bool
	l, r    kNode
	out     Vec
}

func (k *kArith) eval(src VecSource, sel []int32, n int) (*Vec, error) {
	lv, err := k.l.eval(src, sel, n)
	if err != nil {
		return nil, err
	}
	rv, err := k.r.eval(src, sel, n)
	if err != nil {
		return nil, err
	}
	if k.intLane {
		k.out.reset(TInt, n)
		a, b := lv.I[:n], rv.I[:n]
		switch k.op {
		case Add:
			for i := range a {
				k.out.I[i] = a[i] + b[i]
			}
		case Sub:
			for i := range a {
				k.out.I[i] = a[i] - b[i]
			}
		case Mul:
			for i := range a {
				k.out.I[i] = a[i] * b[i]
			}
		}
	} else {
		k.out.reset(TFloat, n)
		a, b := lv.F[:n], rv.F[:n]
		switch k.op {
		case Add:
			for i := range a {
				k.out.F[i] = a[i] + b[i]
			}
		case Sub:
			for i := range a {
				k.out.F[i] = a[i] - b[i]
			}
		case Mul:
			for i := range a {
				k.out.F[i] = a[i] * b[i]
			}
		case Div:
			var nulls Bitmap
			for i := range a {
				if b[i] == 0 {
					if nulls == nil {
						nulls = k.out.ensureNull()
					}
					nulls.Set(i)
					continue
				}
				k.out.F[i] = a[i] / b[i]
			}
		}
		// A NaN has no DOUBLE (Double): its slot is NULL, like ÷0's.
		for i, f := range k.out.F[:n] {
			var ok bool
			if k.out.F[i], ok = Double(f); !ok {
				k.out.ensureNull().Set(i)
			}
		}
	}
	// NULL results of arithmetic are float-typed, even on the int lane.
	unionNulls(&k.out, lv.Null, rv.Null)
	k.out.NullT = TFloat
	return &k.out, nil
}

// ---- range, membership, pattern, null tests ----

type kBetween struct {
	c                kNode
	lane             Type
	loFloat, hiFloat bool
	loI, hiI         int64
	loF, hiF         float64
	loS, hiS         string
	out              Vec
}

func (k *kBetween) eval(src VecSource, sel []int32, n int) (*Vec, error) {
	cv, err := k.c.eval(src, sel, n)
	if err != nil {
		return nil, err
	}
	k.out.reset(TBool, n)
	switch k.lane {
	case TInt:
		for i := 0; i < n; i++ {
			v := cv.I[i]
			ok := true
			if k.loFloat {
				ok = !(float64(v) < k.loF)
			} else {
				ok = v >= k.loI
			}
			if ok {
				if k.hiFloat {
					ok = !(float64(v) > k.hiF)
				} else {
					ok = v <= k.hiI
				}
			}
			if ok {
				k.out.B.Set(i)
			}
		}
	case TFloat:
		for i := 0; i < n; i++ {
			v := cv.F[i]
			if !(v < k.loF) && !(v > k.hiF) {
				k.out.B.Set(i)
			}
		}
	case TString:
		for i := 0; i < n; i++ {
			v := cv.S[i]
			if v >= k.loS && v <= k.hiS {
				k.out.B.Set(i)
			}
		}
	}
	k.out.Null = cv.Null
	return &k.out, nil
}

type kIn struct {
	c        kNode
	negated  bool
	lane     Type
	intItems []int64
	fItems   []float64
	sItems   []string
	out      Vec
}

func (k *kIn) eval(src VecSource, sel []int32, n int) (*Vec, error) {
	cv, err := k.c.eval(src, sel, n)
	if err != nil {
		return nil, err
	}
	k.out.reset(TBool, n)
	switch k.lane {
	case TInt, TDate:
		for i := 0; i < n; i++ {
			v := cv.I[i]
			found := false
			for _, it := range k.intItems {
				if v == it {
					found = true
					break
				}
			}
			if !found && len(k.fItems) > 0 {
				fv := float64(v)
				for _, it := range k.fItems {
					if !(fv < it) && !(fv > it) {
						found = true
						break
					}
				}
			}
			if found != k.negated {
				k.out.B.Set(i)
			}
		}
	case TFloat:
		for i := 0; i < n; i++ {
			v := cv.F[i]
			found := false
			for _, it := range k.fItems {
				if !(v < it) && !(v > it) {
					found = true
					break
				}
			}
			if found != k.negated {
				k.out.B.Set(i)
			}
		}
	case TString:
		for i := 0; i < n; i++ {
			v := cv.S[i]
			found := false
			for _, it := range k.sItems {
				if v == it {
					found = true
					break
				}
			}
			if found != k.negated {
				k.out.B.Set(i)
			}
		}
	}
	k.out.Null = cv.Null
	return &k.out, nil
}

type likeMode int

const (
	likeWhole likeMode = iota
	likePrefix
	likeSuffix
	likeContains
	likeGeneral
)

type kLike struct {
	c       kNode
	negated bool
	mode    likeMode
	needle  string
	pattern string
	out     Vec
}

// newKLike classifies the pattern so the common shapes (exact, "abc%",
// "%abc", "%abc%") run as plain string operations instead of the general
// wildcard matcher.
func newKLike(child kNode, pattern string, negated bool) *kLike {
	k := &kLike{c: child, negated: negated, pattern: pattern, mode: likeGeneral}
	plain := func(s string) bool { return !strings.ContainsAny(s, "%_") }
	switch {
	case plain(pattern):
		k.mode, k.needle = likeWhole, pattern
	case len(pattern) >= 2 && pattern[0] == '%' && pattern[len(pattern)-1] == '%' &&
		plain(pattern[1:len(pattern)-1]):
		k.mode, k.needle = likeContains, pattern[1:len(pattern)-1]
	case pattern[0] == '%' && plain(pattern[1:]):
		k.mode, k.needle = likeSuffix, pattern[1:]
	case pattern[len(pattern)-1] == '%' && plain(pattern[:len(pattern)-1]):
		k.mode, k.needle = likePrefix, pattern[:len(pattern)-1]
	}
	return k
}

func (k *kLike) eval(src VecSource, sel []int32, n int) (*Vec, error) {
	cv, err := k.c.eval(src, sel, n)
	if err != nil {
		return nil, err
	}
	k.out.reset(TBool, n)
	for i := 0; i < n; i++ {
		var m bool
		switch k.mode {
		case likeWhole:
			m = cv.S[i] == k.needle
		case likePrefix:
			m = strings.HasPrefix(cv.S[i], k.needle)
		case likeSuffix:
			m = strings.HasSuffix(cv.S[i], k.needle)
		case likeContains:
			m = strings.Contains(cv.S[i], k.needle)
		default:
			m = MatchLike(cv.S[i], k.pattern)
		}
		if m != k.negated {
			k.out.B.Set(i)
		}
	}
	k.out.Null = cv.Null
	return &k.out, nil
}

type kConcat struct {
	l, r kNode
	out  Vec
}

func (k *kConcat) eval(src VecSource, sel []int32, n int) (*Vec, error) {
	lv, err := k.l.eval(src, sel, n)
	if err != nil {
		return nil, err
	}
	rv, err := k.r.eval(src, sel, n)
	if err != nil {
		return nil, err
	}
	k.out.reset(TString, n)
	for i := 0; i < n; i++ {
		k.out.S[i] = lv.S[i] + rv.S[i]
	}
	// NULL results of concat are string-typed (reset already set NullT).
	unionNulls(&k.out, lv.Null, rv.Null)
	return &k.out, nil
}

type kIsNull struct {
	c       kNode
	negated bool
	out     Vec
}

func (k *kIsNull) eval(src VecSource, sel []int32, n int) (*Vec, error) {
	cv, err := k.c.eval(src, sel, n)
	if err != nil {
		return nil, err
	}
	k.out.reset(TBool, n)
	nw := bitmapWords(n)
	for w := 0; w < nw; w++ {
		if k.negated {
			k.out.B[w] = ^cv.Null.word(w)
		} else {
			k.out.B[w] = cv.Null.word(w)
		}
	}
	return &k.out, nil
}

// ---- scalar calls ----

type kCall struct {
	fn  ScalarFn
	c   kNode
	out Vec
}

func (k *kCall) eval(src VecSource, sel []int32, n int) (*Vec, error) {
	cv, err := k.c.eval(src, sel, n)
	if err != nil {
		return nil, err
	}
	switch k.fn {
	case FnAbs:
		if cv.T == TFloat {
			k.out.reset(TFloat, n)
			for i := 0; i < n; i++ {
				f := cv.F[i]
				if f < 0 {
					f = -f
				}
				k.out.F[i] = f
			}
		} else {
			k.out.reset(TInt, n)
			for i := 0; i < n; i++ {
				v := cv.I[i]
				if v < 0 {
					v = -v
				}
				k.out.I[i] = v
			}
		}
	case FnYear:
		k.out.reset(TInt, n)
		for i := 0; i < n; i++ {
			y, _, _ := civilFromDays(cv.I[i])
			k.out.I[i] = y
		}
	case FnMonth:
		k.out.reset(TInt, n)
		for i := 0; i < n; i++ {
			_, m, _ := civilFromDays(cv.I[i])
			k.out.I[i] = int64(m)
		}
	case FnDay:
		k.out.reset(TInt, n)
		for i := 0; i < n; i++ {
			_, _, d := civilFromDays(cv.I[i])
			k.out.I[i] = int64(d)
		}
	}
	// Scalar calls produce int-typed NULLs for every function.
	k.out.Null = cv.Null
	k.out.NullT = TInt
	return &k.out, nil
}

// civilFromDays converts days since 1970-01-01 to a proleptic Gregorian
// (year, month, day), matching time.Time's calendar for the full range
// the interpreter's epoch.AddDate can represent.
func civilFromDays(z int64) (y int64, m, d int) {
	z += 719468
	era := z / 146097
	if z < 0 && z%146097 != 0 {
		era--
	}
	doe := z - era*146097
	yoe := (doe - doe/1460 + doe/36524 - doe/146096) / 365
	y = yoe + era*400
	doy := doe - (365*yoe + yoe/4 - yoe/100)
	mp := (5*doy + 2) / 153
	d = int(doy - (153*mp+2)/5 + 1)
	if mp < 10 {
		m = int(mp + 3)
	} else {
		m = int(mp - 9)
	}
	if m <= 2 {
		y++
	}
	return
}

// ---- constant-NULL and fallback nodes ----

// kAllNull evaluates its children (so evaluation errors still surface in
// tree order) and produces an all-NULL vector: a comparison, arithmetic
// or predicate with a statically NULL operand is NULL on every row.
type kAllNull struct {
	children []kNode
	t        Type
	out      Vec
}

func (k *kAllNull) eval(src VecSource, sel []int32, n int) (*Vec, error) {
	for _, c := range k.children {
		if _, err := c.eval(src, sel, n); err != nil {
			return nil, err
		}
	}
	k.out.reset(k.t, n)
	k.out.NullT = k.t
	nulls := k.out.ensureNull()
	for w := range nulls {
		nulls[w] = ^uint64(0)
	}
	return &k.out, nil
}

// kFallback is the interpreter node: it evaluates its subtree with the
// row interpreter, one row at a time over a scratch row holding only the
// columns the subtree reads, into the subtree's static type. A value of
// another type fails with ErrLane. With truth set it stores EvalBool's
// verdict instead, on the bool lane.
type kFallback struct {
	e     Expr
	t     Type
	truth bool
	cols  []int  // the columns e reads
	vecs  []*Vec // scratch: the source's vectors of cols
	row   Row    // scratch: one row's values of cols, at their indexes
	out   Vec
}

func newFallback(e Expr, t Type, truth bool) *kFallback {
	k := &kFallback{e: e, t: t, truth: truth}
	width := 0
	Walk(e, func(x Expr) bool {
		if c, ok := x.(*Col); ok && c.Index >= 0 && !slices.Contains(k.cols, c.Index) {
			k.cols = append(k.cols, c.Index)
			width = max(width, c.Index+1)
		}
		return true
	})
	k.vecs, k.row = make([]*Vec, len(k.cols)), make(Row, width)
	return k
}

func (k *kFallback) eval(src VecSource, sel []int32, n int) (*Vec, error) {
	for i, c := range k.cols {
		v, ok := src.ColVec(c)
		if !ok {
			return nil, fmt.Errorf("expr: column %d not available", c)
		}
		k.vecs[i] = v
	}
	k.out.reset(k.t, n)
	var nulls Bitmap
	for j := 0; j < n; j++ {
		ri := j
		if sel != nil {
			ri = int(sel[j])
		}
		for i, c := range k.cols {
			k.row[c] = k.vecs[i].Value(ri)
		}
		v, err := Eval(k.e, k.row)
		if err != nil {
			return nil, err
		}
		if k.truth {
			v = NewBool(!v.IsNull() && v.Bool())
		}
		if v.IsNull() {
			if nulls == nil {
				nulls = k.out.ensureNull()
			}
			nulls.Set(j)
			continue
		}
		if v.T != k.t {
			return nil, fmt.Errorf("%w: %s yields %s, typed %s", ErrLane, k.e, v.T, k.t)
		}
		switch k.t {
		case TInt, TDate:
			k.out.I[j] = v.I
		case TFloat:
			k.out.F[j] = v.F
		case TString:
			k.out.S[j] = v.S
		case TBool:
			if v.I != 0 {
				k.out.B.Set(j)
			}
		}
	}
	return &k.out, nil
}
