package lru

import (
	"slices"
	"testing"
)

// model is the reference the cache is checked against: a slice of
// entries, most recently used first.
type model struct {
	budget int64
	ents   []modelEntry
}

type modelEntry struct {
	key, val int
	cost     int64
}

func (m *model) find(k int) int {
	return slices.IndexFunc(m.ents, func(e modelEntry) bool { return e.key == k })
}

func (m *model) cost() (c int64) {
	for _, e := range m.ents {
		c += e.cost
	}
	return c
}

func (m *model) get(k int) (int, bool) {
	i := m.find(k)
	if i < 0 {
		return 0, false
	}
	e := m.ents[i]
	m.ents = append([]modelEntry{e}, slices.Delete(m.ents, i, i+1)...)
	return e.val, true
}

func (m *model) put(k, v int, cost int64) (evicted int) {
	if i := m.find(k); i >= 0 {
		m.ents = slices.Delete(m.ents, i, i+1)
	}
	m.ents = append([]modelEntry{{k, v, cost}}, m.ents...)
	for m.cost() > m.budget && len(m.ents) > 1 {
		m.ents = m.ents[:len(m.ents)-1]
		evicted++
	}
	return evicted
}

func (m *model) remove(k int) bool {
	i := m.find(k)
	if i < 0 {
		return false
	}
	m.ents = slices.Delete(m.ents, i, i+1)
	return true
}

// check compares the cache with the model: length, total cost, and every
// entry's key, value and cost in recency order.
func check(t *testing.T, c *Cache[int, int], m *model) {
	t.Helper()
	if c.Len() != len(m.ents) || c.Cost() != m.cost() {
		t.Fatalf("len %d cost %d, model len %d cost %d", c.Len(), c.Cost(), len(m.ents), m.cost())
	}
	i := 0
	for n := c.root.next; n != &c.root; n = n.next {
		if i == len(m.ents) || n.next.prev != n {
			t.Fatalf("recency list is longer than the map or broken at position %d", i)
		}
		if e := m.ents[i]; n.key != e.key || n.val != e.val || n.cost != e.cost {
			t.Fatalf("position %d: cache %d=%d (cost %d), model %d=%d (cost %d)", i, n.key, n.val, n.cost, e.key, e.val, e.cost)
		}
		i++
	}
	if i != len(m.ents) {
		t.Fatalf("recency list holds %d entries, the map %d", i, len(m.ents))
	}
}

func TestLRUAgainstModel(t *testing.T) {
	c, m := New[int, int](10), &model{budget: 10}
	put := func(k, v int, cost int64, wantEvicted int) {
		t.Helper()
		got, want := c.Put(k, v, cost), m.put(k, v, cost)
		if got != want || got != wantEvicted {
			t.Fatalf("Put(%d, cost %d) evicted %d, model %d, want %d", k, cost, got, want, wantEvicted)
		}
		check(t, c, m)
	}
	get := func(k int, wantOK bool) {
		t.Helper()
		v, ok := c.Get(k)
		mv, mok := m.get(k)
		if ok != wantOK || ok != mok || v != mv {
			t.Fatalf("Get(%d) = %d, %t; model %d, %t; want ok=%t", k, v, ok, mv, mok, wantOK)
		}
		check(t, c, m)
	}
	put(1, 10, 3, 0)
	put(2, 20, 3, 0)
	put(3, 30, 3, 0)
	get(1, true)     // promote on get: 1, 3, 2
	put(4, 40, 3, 1) // 12 > 10: the least recent (2) goes, not 1
	get(2, false)
	put(3, 31, 1, 0) // replacing adjusts the cost: 7, order 3, 4, 1
	put(5, 50, 7, 2) // 14 > 10: 1 then 4 go, in recency order
	put(6, 60, 25, 2)
	if c.Len() != 1 || c.Cost() != 25 {
		t.Fatalf("an entry over the whole budget must stay as the only one: len %d cost %d", c.Len(), c.Cost())
	}
	if !c.Remove(6) || !m.remove(6) {
		t.Fatal("Remove of a present key reported false")
	}
	check(t, c, m)
	if c.Remove(6) {
		t.Fatal("Remove of an absent key reported true")
	}
	put(7, 70, 1, 0)
}

// FuzzLRU checks random sequences of Put, Get and Remove, with costs on
// both sides of the budget, against the model.
func FuzzLRU(f *testing.F) {
	f.Add([]byte{0, 1, 5, 0, 2, 5, 1, 1, 0, 0, 3, 9, 2, 2, 0, 0, 4, 19})
	f.Fuzz(func(t *testing.T, ops []byte) {
		const budget = 16
		c, m := New[int, int](budget), &model{budget: budget}
		for i := 0; i+2 < len(ops); i += 3 {
			k := int(ops[i+1] % 8)
			switch ops[i] % 3 {
			case 0:
				cost := int64(ops[i+2] % 20)
				if got, want := c.Put(k, i, cost), m.put(k, i, cost); got != want {
					t.Fatalf("op %d: Put(%d, cost %d) evicted %d, model %d", i/3, k, cost, got, want)
				}
			case 1:
				v, ok := c.Get(k)
				if mv, mok := m.get(k); v != mv || ok != mok {
					t.Fatalf("op %d: Get(%d) = %d, %t; model %d, %t", i/3, k, v, ok, mv, mok)
				}
			case 2:
				if got, want := c.Remove(k), m.remove(k); got != want {
					t.Fatalf("op %d: Remove(%d) = %t, model %t", i/3, k, got, want)
				}
			}
			check(t, c, m)
		}
	})
}
