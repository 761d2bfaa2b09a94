// Package policy implements dataflow policies (Section 3.1), policy
// expressions (Section 4) and the policy evaluation algorithm 𝒜
// (Algorithm 1, Section 5): given a local query over a database D and the
// set of policy expressions attached to D, the evaluator computes the set
// of locations to which the query's output may legally be shipped.
package policy

import (
	"fmt"
	"strings"

	"cgdqp/internal/expr"
	"cgdqp/internal/sqlparse"
)

// Expression is one policy expression ⟨𝒟, L_𝒟⟩. Basic expressions
// (Section 4.1) allow shipping raw cells; aggregate expressions
// (Section 4.2) allow shipping aggregated cells only. Following the
// paper's footnote 4, an expression may range over several base tables
// of one database, in which case its predicate must contain the join
// predicate. Attribute and table names are stored lowercase; predicates
// are canonicalized so that every column is qualified with the
// (lowercase) base table name.
type Expression struct {
	ID       string
	DB       string   // owning database
	Tables   []string // base tables the expression covers (len ≥ 1)
	AllAttrs bool     // ship *
	Attrs    []Attr
	AggFns   []expr.AggFn // non-empty for aggregate expressions (F_e)
	GroupBy  []Attr       // allowed grouping attributes (G_e)
	Where    expr.Expr    // predicate P_e (nil = TRUE)
	ToAll    bool         // to *
	To       []string     // legal destinations L_e
}

// OwnsTable reports whether the expression ranges over the base table.
func (e *Expression) OwnsTable(table string) bool {
	for _, t := range e.Tables {
		if t == table {
			return true
		}
	}
	return false
}

// IsAggregate reports whether this is an aggregate expression.
func (e *Expression) IsAggregate() bool { return len(e.AggFns) > 0 }

// Covers reports whether the base attribute is in the expression's ship
// list A_e.
func (e *Expression) Covers(a Attr) bool {
	if !e.OwnsTable(a.Table) {
		return false
	}
	if e.AllAttrs {
		return true
	}
	for _, x := range e.Attrs {
		if x == a {
			return true
		}
	}
	return false
}

// InGroupBy reports whether the base attribute is in G_e.
func (e *Expression) InGroupBy(a Attr) bool {
	for _, x := range e.GroupBy {
		if x == a {
			return true
		}
	}
	return false
}

// AllowsFn reports whether the aggregate function is in F_e.
func (e *Expression) AllowsFn(fn expr.AggFn) bool {
	for _, f := range e.AggFns {
		if f == fn {
			return true
		}
	}
	return false
}

// Destinations expands the TO clause against the full location list.
func (e *Expression) Destinations(allLocations []string) []string {
	if e.ToAll {
		return append([]string(nil), allLocations...)
	}
	return e.To
}

// renderAttr renders an attribute, qualifying it only when the
// expression spans several tables.
func (e *Expression) renderAttr(a Attr) string {
	if len(e.Tables) > 1 {
		return a.Key()
	}
	return a.Name
}

// String renders the expression in its surface syntax.
func (e *Expression) String() string {
	var b strings.Builder
	b.WriteString("ship ")
	if e.AllAttrs {
		b.WriteString("*")
	} else {
		parts := make([]string, len(e.Attrs))
		for i, a := range e.Attrs {
			parts[i] = e.renderAttr(a)
		}
		b.WriteString(strings.Join(parts, ", "))
	}
	if e.IsAggregate() {
		fns := make([]string, len(e.AggFns))
		for i, f := range e.AggFns {
			fns[i] = strings.ToLower(f.String())
		}
		b.WriteString(" as aggregates " + strings.Join(fns, ", "))
	}
	b.WriteString(" from ")
	tables := make([]string, len(e.Tables))
	for i, t := range e.Tables {
		if e.DB != "" {
			tables[i] = e.DB + "." + t
		} else {
			tables[i] = t
		}
	}
	b.WriteString(strings.Join(tables, ", "))
	b.WriteString(" to ")
	if e.ToAll {
		b.WriteString("*")
	} else {
		b.WriteString(strings.Join(e.To, ", "))
	}
	if e.Where != nil {
		b.WriteString(" where " + e.Where.String())
	}
	if len(e.GroupBy) > 0 {
		parts := make([]string, len(e.GroupBy))
		for i, a := range e.GroupBy {
			parts[i] = e.renderAttr(a)
		}
		b.WriteString(" group by " + strings.Join(parts, ", "))
	}
	return b.String()
}

// FromStmt converts a parsed policy statement into an Expression owned by
// the given database. When the statement itself is database-qualified
// (db-4.lineitem) the qualifier must agree with db when db is non-empty.
func FromStmt(stmt *sqlparse.PolicyStmt, id, db string) (*Expression, error) {
	if stmt.Deny {
		return nil, fmt.Errorf("policy: negative expressions must be compiled first (see CompileDenials)")
	}
	if stmt.DB != "" {
		if db != "" && !strings.EqualFold(stmt.DB, db) {
			return nil, fmt.Errorf("policy: expression for %s.%s registered under database %s", stmt.DB, stmt.Table, db)
		}
		db = stmt.DB
	}
	if db == "" {
		return nil, fmt.Errorf("policy: expression over %s has no owning database", stmt.Table)
	}
	// Alias → base table resolution for attribute references.
	tables := make([]string, 0, len(stmt.Tables))
	byAlias := map[string]string{}
	for _, t := range stmt.Tables {
		tables = append(tables, t.Name)
		if t.Alias != "" {
			byAlias[t.Alias] = t.Name
		}
		byAlias[t.Name] = t.Name
	}
	if len(tables) == 0 {
		tables = []string{strings.ToLower(stmt.Table)}
		byAlias[tables[0]] = tables[0]
	}
	multi := len(tables) > 1
	if multi && stmt.AllAttrs {
		return nil, fmt.Errorf("policy: multi-table expressions require explicit (qualified) attributes")
	}
	if multi && stmt.Where == nil {
		return nil, fmt.Errorf("policy: multi-table expressions must carry the join predicate in WHERE (footnote 4)")
	}
	resolveAttr := func(raw string) (Attr, error) {
		if dot := strings.IndexByte(raw, '.'); dot >= 0 {
			base, ok := byAlias[raw[:dot]]
			if !ok {
				return Attr{}, fmt.Errorf("policy: unknown table alias %q in attribute %q", raw[:dot], raw)
			}
			return Attr{Table: base, Name: raw[dot+1:]}, nil
		}
		if multi {
			return Attr{}, fmt.Errorf("policy: attribute %q must be table-qualified in a multi-table expression", raw)
		}
		return Attr{Table: tables[0], Name: raw}, nil
	}

	e := &Expression{
		ID:       id,
		DB:       strings.ToLower(db),
		Tables:   tables,
		AllAttrs: stmt.AllAttrs,
		AggFns:   append([]expr.AggFn(nil), stmt.AggFns...),
		ToAll:    stmt.ToAll,
		To:       append([]string(nil), stmt.To...),
	}
	for _, raw := range stmt.Attrs {
		a, err := resolveAttr(raw)
		if err != nil {
			return nil, err
		}
		e.Attrs = append(e.Attrs, a)
	}
	for _, raw := range stmt.GroupBy {
		a, err := resolveAttr(raw)
		if err != nil {
			return nil, err
		}
		e.GroupBy = append(e.GroupBy, a)
	}
	if stmt.Where != nil {
		canon, err := canonicalizePolicyPred(stmt.Where, byAlias, multi, tables[0])
		if err != nil {
			return nil, err
		}
		e.Where = canon
	}
	return e, nil
}

// Parse parses policy expression text and converts it in one step.
func Parse(src, id, db string) (*Expression, error) {
	stmt, err := sqlparse.ParsePolicy(src)
	if err != nil {
		return nil, err
	}
	return FromStmt(stmt, id, db)
}

// MustParse parses a policy expression and panics on error; for tests and
// statically known policies.
func MustParse(src, id, db string) *Expression {
	e, err := Parse(src, id, db)
	if err != nil {
		panic(err)
	}
	return e
}

// canonicalizePolicyPred maps aliases to base tables inside a policy
// predicate. In single-table mode unqualified (and unknown-qualifier)
// columns default to the table; in multi-table mode every column must
// resolve through the alias map.
func canonicalizePolicyPred(p expr.Expr, byAlias map[string]string, multi bool, defaultTable string) (expr.Expr, error) {
	var firstErr error
	out := expr.Transform(p, func(n expr.Expr) expr.Expr {
		c, ok := n.(*expr.Col)
		if !ok {
			return n
		}
		table := defaultTable
		if c.Table != "" {
			if base, found := byAlias[strings.ToLower(c.Table)]; found {
				table = base
			} else if multi {
				if firstErr == nil {
					firstErr = fmt.Errorf("policy: unknown table alias %q in predicate", c.Table)
				}
				return n
			}
		} else if multi {
			if firstErr == nil {
				firstErr = fmt.Errorf("policy: column %q must be table-qualified in a multi-table expression", c.Name)
			}
			return n
		}
		return &expr.Col{Table: table, Name: strings.ToLower(c.Name), Index: -1}
	})
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}

func lowerAll(in []string) []string {
	out := make([]string, len(in))
	for i, s := range in {
		out[i] = strings.ToLower(s)
	}
	return out
}
