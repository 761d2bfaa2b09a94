package memo

// Signature exposes a group's join signature key to the external tests
// ("" for a group no join created).
func (g *Group) Signature() string {
	if g.leaves == nil {
		return ""
	}
	return sigKey(g.leaves, g.conjs)
}

// ExprSignature recomputes a join expression's signature from its
// operator and children, the way InsertExpr does.
func (m *Memo) ExprSignature(e *MExpr) string {
	return sigKey(m.joinSig(e.Op, e.Children))
}

// FeedbackDigest exposes the digest the group looks observed actuals up
// under ("" without a hint source).
func (g *Group) FeedbackDigest() string { return g.fb.Digest }
