package sqlparse

import (
	"fmt"
	"strings"

	"cgdqp/internal/expr"
	"cgdqp/internal/plan"
	"cgdqp/internal/schema"
)

// Bind resolves a parsed query against the catalog and produces a logical
// plan: scans joined left-deep (with a filter holding all predicates),
// followed by aggregation, projection, sort and limit as needed. The
// optimizer's normalization pass later pushes predicates down and prunes
// columns.
func Bind(stmt *SelectStmt, cat *schema.Catalog) (*plan.Node, error) {
	b := &binder{cat: cat}
	return b.bindSelect(stmt)
}

// ParseAndBind parses SQL text and binds it in one step.
func ParseAndBind(sql string, cat *schema.Catalog) (*plan.Node, error) {
	stmt, err := ParseQuery(sql)
	if err != nil {
		return nil, err
	}
	return Bind(stmt, cat)
}

type binder struct {
	cat     *schema.Catalog
	aggSeq  int
	aliases map[string]bool
}

func (b *binder) bindSelect(stmt *SelectStmt) (*plan.Node, error) {
	if len(stmt.From) == 0 {
		return nil, fmt.Errorf("sqlparse: query has no FROM clause")
	}
	prevAliases := b.aliases
	b.aliases = map[string]bool{}
	defer func() { b.aliases = prevAliases }()

	// FROM: bind each table reference and cross-join left-deep.
	var tree *plan.Node
	for _, ref := range stmt.From {
		node, err := b.bindTableRef(ref)
		if err != nil {
			return nil, err
		}
		if tree == nil {
			tree = node
		} else {
			tree = plan.NewJoin(tree, node, nil)
		}
	}

	// WHERE (JOIN ON folded in): resolve column qualifiers, type-check
	// the comparisons, then filter on top.
	if stmt.Where != nil {
		resolved, err := b.resolveColumns(stmt.Where, tree)
		if err != nil {
			return nil, err
		}
		if err := checkComparisons(resolved, tree); err != nil {
			return nil, err
		}
		tree = plan.NewFilter(tree, resolved)
	}

	// Select list: expand stars, resolve columns.
	items, err := b.expandItems(stmt.Items, tree)
	if err != nil {
		return nil, err
	}

	hasAgg := len(stmt.GroupBy) > 0 || stmt.Having != nil
	for _, it := range items {
		if expr.ContainsAgg(it.E) {
			hasAgg = true
		}
	}

	if hasAgg {
		var having expr.Expr
		tree, items, having, err = b.bindAggregate(stmt, items, tree)
		if err != nil {
			return nil, err
		}
		if having != nil {
			tree = plan.NewFilter(tree, having)
		}
	} else if stmt.Having != nil {
		return nil, fmt.Errorf("sqlparse: HAVING requires aggregation")
	}

	// DISTINCT over a non-aggregating query groups by every output
	// column (aggregating queries already emit one row per group).
	if stmt.Distinct && !hasAgg {
		tree, items, err = b.bindDistinct(items, tree)
		if err != nil {
			return nil, err
		}
	}

	// Final projection (skip when the items already are the full schema,
	// which happens for SELECT * and for pure aggregations).
	if !identityItems(items, tree) {
		projs := make([]plan.NamedExpr, len(items))
		for i, it := range items {
			name := it.Alias
			if name == "" {
				if c, ok := it.E.(*expr.Col); ok {
					name = c.Name
				} else {
					name = fmt.Sprintf("col%d", i+1)
				}
			}
			projs[i] = plan.NamedExpr{E: it.E, Name: name}
		}
		tree = plan.NewProject(tree, projs)
	}

	// ORDER BY / LIMIT. Keys resolve against the output schema; when a
	// key references a column hidden by the final projection (SQL allows
	// ordering by underlying columns), the sort moves below it.
	if len(stmt.OrderBy) > 0 {
		keys := make([]plan.SortKey, len(stmt.OrderBy))
		outputOK := true
		for i, o := range stmt.OrderBy {
			resolved, err := b.resolveColumns(o.E, tree)
			if err != nil {
				outputOK = false
				break
			}
			keys[i] = plan.SortKey{E: resolved, Desc: o.Desc}
		}
		switch {
		case outputOK:
			tree = plan.NewSort(tree, keys)
		case tree.Kind == plan.Project:
			inner := tree.Children[0]
			for i, o := range stmt.OrderBy {
				resolved, err := b.resolveColumns(o.E, inner)
				if err != nil {
					return nil, err
				}
				keys[i] = plan.SortKey{E: resolved, Desc: o.Desc}
			}
			tree.Children[0] = plan.NewSort(inner, keys)
		default:
			if _, err := b.resolveColumns(stmt.OrderBy[0].E, tree); err != nil {
				return nil, err
			}
		}
	}
	if stmt.Limit >= 0 {
		tree = plan.NewLimit(tree, stmt.Limit)
	}
	return tree, nil
}

func (b *binder) bindTableRef(ref TableRef) (*plan.Node, error) {
	alias := ref.Alias
	if ref.Sub != nil {
		sub, err := b.bindSelect(ref.Sub)
		if err != nil {
			return nil, err
		}
		if dup := b.claimAlias(alias); dup != nil {
			return nil, dup
		}
		return plan.NewRename(sub, alias), nil
	}
	tab, ok := b.cat.Table(ref.Name)
	if !ok {
		return nil, fmt.Errorf("sqlparse: unknown table %q", ref.Name)
	}
	if alias == "" {
		alias = tab.Name
	}
	if dup := b.claimAlias(alias); dup != nil {
		return nil, dup
	}
	return plan.NewScan(tab, alias, -1), nil
}

func (b *binder) claimAlias(alias string) error {
	key := strings.ToLower(alias)
	if b.aliases[key] {
		return fmt.Errorf("sqlparse: duplicate table alias %q", alias)
	}
	b.aliases[key] = true
	return nil
}

// resolveColumns qualifies every unqualified column reference against the
// scope's output schema and verifies qualified references exist.
func (b *binder) resolveColumns(e expr.Expr, scope *plan.Node) (expr.Expr, error) {
	var resolveErr error
	out := expr.Transform(e, func(n expr.Expr) expr.Expr {
		c, ok := n.(*expr.Col)
		if !ok || resolveErr != nil {
			return n
		}
		idx := scope.ColIndex(c)
		if idx < 0 {
			if resolveErr == nil {
				resolveErr = fmt.Errorf("sqlparse: cannot resolve column %s", c.Key())
			}
			return n
		}
		cr := scope.Cols[idx]
		return &expr.Col{Table: cr.Table, Name: cr.Name, Index: -1}
	})
	if resolveErr != nil {
		return nil, resolveErr
	}
	if err := expr.CheckCases(out, scopeType(scope)); err != nil {
		return nil, fmt.Errorf("sqlparse: %w", err)
	}
	return out, nil
}

// scopeType resolves a column's type against the scope's schema (TNull
// when it does not resolve).
func scopeType(scope *plan.Node) func(*expr.Col) expr.Type {
	return func(c *expr.Col) expr.Type {
		if i := scope.ColIndex(c); i >= 0 {
			return scope.Cols[i].Type
		}
		return expr.TNull
	}
}

// expandItems expands * / t.* items and resolves column references.
func (b *binder) expandItems(items []SelectItem, scope *plan.Node) ([]SelectItem, error) {
	var out []SelectItem
	for _, it := range items {
		if it.Star {
			matched := false
			for _, c := range scope.Cols {
				if it.StarTable == "" || strings.EqualFold(c.Table, it.StarTable) {
					out = append(out, SelectItem{E: c.Col()})
					matched = true
				}
			}
			if !matched {
				return nil, fmt.Errorf("sqlparse: %s.* matches no columns", it.StarTable)
			}
			continue
		}
		resolved, err := b.resolveColumns(it.E, scope)
		if err != nil {
			return nil, err
		}
		out = append(out, SelectItem{E: resolved, Alias: it.Alias})
	}
	return out, nil
}

// bindAggregate builds the Aggregate operator: it extracts aggregate
// calls out of the select items (and the HAVING clause), validates that
// non-aggregated items are grouping columns, and rewrites items to
// reference aggregate outputs. The returned predicate is the HAVING
// condition expressed over the aggregate's output schema (nil if
// absent).
func (b *binder) bindAggregate(stmt *SelectStmt, items []SelectItem, tree *plan.Node) (*plan.Node, []SelectItem, expr.Expr, error) {
	// Group-by items may be computed expressions (GROUP BY YEAR(d)):
	// materialize them in a projection below the aggregate and group by
	// the synthesized column.
	groupBy := make([]*expr.Col, len(stmt.GroupBy))
	type computedGroup struct {
		e   expr.Expr // resolved source expression
		col *expr.Col // synthesized reference
	}
	var computed []computedGroup
	var synth []plan.NamedExpr
	for i, g := range stmt.GroupBy {
		resolved, err := b.resolveColumns(g, tree)
		if err != nil {
			return nil, nil, nil, err
		}
		if c, ok := resolved.(*expr.Col); ok {
			groupBy[i] = c
			continue
		}
		name := fmt.Sprintf("_g%d", len(computed))
		ref := expr.NewCol("", name)
		computed = append(computed, computedGroup{e: resolved, col: ref})
		synth = append(synth, plan.NamedExpr{E: resolved, Name: name})
		groupBy[i] = ref
	}
	if len(synth) > 0 {
		projs := make([]plan.NamedExpr, 0, len(tree.Cols)+len(synth))
		for _, c := range tree.Cols {
			projs = append(projs, plan.NamedExpr{E: c.Col(), Name: c.Name, Type: c.Type})
		}
		projs = append(projs, synth...)
		tree = plan.NewProject(tree, projs)
	}
	// matchComputed replaces a select-item expression that structurally
	// equals a computed group expression with its synthesized column.
	matchComputed := func(e expr.Expr) (*expr.Col, bool) {
		for _, cg := range computed {
			if cg.e.Equal(e) {
				return cg.col, true
			}
		}
		return nil, false
	}

	var aggs []plan.NamedAgg
	// findOrAdd returns the output name of an equivalent aggregate.
	findOrAdd := func(a *expr.Agg, preferred string) string {
		for _, existing := range aggs {
			same := existing.Fn == a.Fn &&
				((existing.Arg == nil && a.Arg == nil) || (existing.Arg != nil && a.Arg != nil && existing.Arg.Equal(a.Arg)))
			if same {
				return existing.Name
			}
		}
		name := preferred
		if name == "" {
			name = fmt.Sprintf("agg_%d", b.aggSeq)
			b.aggSeq++
		}
		aggs = append(aggs, plan.NamedAgg{Fn: a.Fn, Arg: a.Arg, Name: name})
		return name
	}

	isGroupCol := func(c *expr.Col) bool {
		for _, g := range groupBy {
			if g.Equal(c) {
				return true
			}
		}
		return false
	}

	outItems := make([]SelectItem, len(items))
	needPost := false
	for i, it := range items {
		switch e := it.E.(type) {
		case *expr.Agg:
			name := findOrAdd(e, it.Alias)
			outItems[i] = SelectItem{E: expr.NewCol("", name), Alias: it.Alias}
			if it.Alias == "" {
				outItems[i].Alias = name
			}
		case *expr.Col:
			if !isGroupCol(e) {
				return nil, nil, nil, fmt.Errorf("sqlparse: column %s must appear in GROUP BY or inside an aggregate", e.Key())
			}
			outItems[i] = it
		default:
			// A computed expression matching a computed group key refers
			// to the synthesized column.
			if ref, ok := matchComputed(it.E); ok {
				alias := it.Alias
				if alias == "" {
					alias = ref.Name
				}
				outItems[i] = SelectItem{E: ref, Alias: alias}
				continue
			}
			// Mixed expression: replace embedded aggregates with refs.
			if !expr.ContainsAgg(it.E) {
				return nil, nil, nil, fmt.Errorf("sqlparse: expression %s must aggregate or group", it.E)
			}
			replaced, err := b.extractAggs(it.E, findOrAdd, isGroupCol)
			if err != nil {
				return nil, nil, nil, err
			}
			outItems[i] = SelectItem{E: replaced, Alias: it.Alias}
			needPost = true
		}
	}
	_ = needPost
	// HAVING: resolve against the pre-aggregation scope, extract its
	// aggregate calls, and validate remaining columns group.
	var having expr.Expr
	if stmt.Having != nil {
		resolved, err := b.resolveColumns(stmt.Having, tree)
		if err != nil {
			return nil, nil, nil, err
		}
		having, err = b.extractAggs(resolved, findOrAdd, isGroupCol)
		if err != nil {
			return nil, nil, nil, err
		}
	}
	agg := plan.NewAggregate(tree, groupBy, aggs)
	if having != nil {
		if err := checkComparisons(having, agg); err != nil {
			return nil, nil, nil, err
		}
	}
	return agg, outItems, having, nil
}

// checkComparisons refuses a predicate that compares values of types
// Value.Compare cannot order (expr.ErrIncomparable), with column types
// from the scope's schema, so a query fails at bind, before optimizing,
// rather than at run time or on some data only.
func checkComparisons(pred expr.Expr, scope *plan.Node) error {
	if err := expr.CheckComparisons(pred, scopeType(scope)); err != nil {
		return fmt.Errorf("sqlparse: %w", err)
	}
	return nil
}

// extractAggs replaces aggregate calls inside an expression with
// references to (possibly newly added) aggregate outputs, and validates
// that every remaining bare column is a grouping column.
func (b *binder) extractAggs(e expr.Expr, findOrAdd func(*expr.Agg, string) string, isGroupCol func(*expr.Col) bool) (expr.Expr, error) {
	replaced := expr.Transform(e, func(n expr.Expr) expr.Expr {
		if a, ok := n.(*expr.Agg); ok {
			return expr.NewCol("", findOrAdd(a, ""))
		}
		return n
	})
	var badCol *expr.Col
	expr.Walk(replaced, func(n expr.Expr) bool {
		if c, ok := n.(*expr.Col); ok && c.Table != "" && !isGroupCol(c) {
			badCol = c
			return false
		}
		return true
	})
	if badCol != nil {
		return nil, fmt.Errorf("sqlparse: column %s must appear in GROUP BY or inside an aggregate", badCol.Key())
	}
	return replaced, nil
}

// bindDistinct rewrites SELECT DISTINCT items into a grouping aggregate
// over every output expression. Non-column items are first materialized
// by a projection so the group-by keys are plain columns.
func (b *binder) bindDistinct(items []SelectItem, tree *plan.Node) (*plan.Node, []SelectItem, error) {
	needProj := false
	for _, it := range items {
		if _, ok := it.E.(*expr.Col); !ok {
			needProj = true
		}
	}
	if needProj {
		projs := make([]plan.NamedExpr, len(items))
		for i, it := range items {
			name := it.Alias
			if name == "" {
				if c, ok := it.E.(*expr.Col); ok {
					name = c.Name
				} else {
					name = fmt.Sprintf("col%d", i+1)
				}
			}
			projs[i] = plan.NamedExpr{E: it.E, Name: name}
		}
		tree = plan.NewProject(tree, projs)
		items = make([]SelectItem, len(tree.Cols))
		for i, c := range tree.Cols {
			items[i] = SelectItem{E: c.Col(), Alias: c.Name}
		}
	}
	groupBy := make([]*expr.Col, len(items))
	for i, it := range items {
		groupBy[i] = it.E.(*expr.Col)
	}
	return plan.NewAggregate(tree, groupBy, nil), items, nil
}

// identityItems reports whether the items are exactly the scope's columns
// in order (so the final projection can be skipped).
func identityItems(items []SelectItem, scope *plan.Node) bool {
	if len(items) != len(scope.Cols) {
		return false
	}
	for i, it := range items {
		c, ok := it.E.(*expr.Col)
		if !ok {
			return false
		}
		cr := scope.Cols[i]
		if !strings.EqualFold(c.Name, cr.Name) {
			return false
		}
		if c.Table != "" && !strings.EqualFold(c.Table, cr.Table) {
			return false
		}
		if it.Alias != "" && !strings.EqualFold(it.Alias, cr.Name) {
			return false
		}
	}
	return true
}
