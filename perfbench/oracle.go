package main

// The benchmark's own oracle. It answers the generator's structured
// queries over a plain adjacency-list model of the data graph, with no
// call into the program's parsers, indexes or evaluators:
//
//   - an RQ is a per-atom bounded BFS from each source candidate;
//   - a PQ is the naive maximum bounded-simulation fixpoint of the
//     paper's §2, over the same per-atom BFS;
//   - writes are replayed onto the model by the benchmark itself.

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// wildcard is the atom color that matches every edge color.
const wildcard = "_"

// clause is one atomic formula "attr op value". op is one of
// "=", "<", "<=", ">", ">=". The generator only compares numbers with
// the ordering operators, so values are parsed as integers there.
type clause struct {
	attr, op, val string
}

// pred is a conjunction of clauses; the empty conjunction holds
// everywhere.
type pred []clause

func (p pred) holds(attrs map[string]string) bool {
	for _, c := range p {
		v, ok := attrs[c.attr]
		if !ok {
			return false
		}
		if c.op == "=" {
			if v != c.val {
				return false
			}
			continue
		}
		x, err1 := strconv.Atoi(v)
		y, err2 := strconv.Atoi(c.val)
		if err1 != nil || err2 != nil {
			return false
		}
		switch c.op {
		case "<":
			if !(x < y) {
				return false
			}
		case "<=":
			if !(x <= y) {
				return false
			}
		case ">":
			if !(x > y) {
				return false
			}
		case ">=":
			if !(x >= y) {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// text renders the predicate in the query language: comma-separated
// clauses, values quoted when they hold anything but plain token bytes.
func (p pred) text() string {
	if len(p) == 0 {
		return "*"
	}
	parts := make([]string, len(p))
	for i, c := range p {
		v := c.val
		if !plainToken(v) {
			v = strconv.Quote(v)
		}
		parts[i] = c.attr + " " + c.op + " " + v
	}
	return strings.Join(parts, ", ")
}

func plainToken(s string) bool {
	if s == "" {
		return false
	}
	for _, r := range s {
		ok := r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' || r == '_' || r == '-' || r == '.'
		if !ok {
			return false
		}
	}
	return true
}

// atom is one component c{max} of a path expression: between 1 and max
// consecutive edges of color c (any color for the wildcard).
type atom struct {
	color string
	max   int
}

func exprText(as []atom) string {
	var b strings.Builder
	for i, a := range as {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(a.color)
		if a.max != 1 {
			fmt.Fprintf(&b, "{%d}", a.max)
		}
	}
	return b.String()
}

// rq is a reachability query: pairs (v, w) with v matching from, w
// matching to, and a non-empty path v → w whose colors spell the atoms.
type rq struct {
	from, to pred
	atoms    []atom
}

// pq is a pattern query: one predicate per pattern node, one path
// expression per pattern edge.
type pq struct {
	nodes []pred
	edges []pedge
}

type pedge struct {
	from, to int
	atoms    []atom
}

// text renders the pattern in the line format of the query language.
func (q *pq) text() string {
	var b strings.Builder
	for i, p := range q.nodes {
		fmt.Fprintf(&b, "node u%d %s\n", i, p.text())
	}
	for _, e := range q.edges {
		fmt.Fprintf(&b, "edge u%d u%d %s\n", e.from, e.to, exprText(e.atoms))
	}
	return b.String()
}

// medge is one out-edge of the model graph.
type medge struct {
	to    int32
	color int16
}

// model is the oracle's data graph: node names, attribute tuples and
// colored out-adjacency, with node ids assigned in insertion order as
// the program assigns them.
type model struct {
	names  []string
	byName map[string]int
	attrs  []map[string]string
	out    [][]medge
	colors []string
	color  map[string]int16
	edges  int

	// seen/stamp make repeated BFS runs allocation-free.
	seen  []uint32
	stamp uint32
	// candCache memoizes cands by predicate text until the next write.
	candCache map[string][]int
}

func newModel() *model {
	return &model{byName: map[string]int{}, color: map[string]int16{}}
}

func (m *model) clone() *model {
	c := newModel()
	c.names = append([]string(nil), m.names...)
	for k, v := range m.byName {
		c.byName[k] = v
	}
	c.attrs = make([]map[string]string, len(m.attrs))
	for i, a := range m.attrs {
		c.attrs[i] = copyAttrs(a)
	}
	c.out = make([][]medge, len(m.out))
	for i, es := range m.out {
		c.out[i] = append([]medge(nil), es...)
	}
	c.colors = append([]string(nil), m.colors...)
	for k, v := range m.color {
		c.color[k] = v
	}
	c.edges = m.edges
	return c
}

func copyAttrs(a map[string]string) map[string]string {
	c := make(map[string]string, len(a))
	for k, v := range a {
		c[k] = v
	}
	return c
}

func (m *model) numNodes() int { return len(m.names) }

func (m *model) colorID(c string) int16 {
	if id, ok := m.color[c]; ok {
		return id
	}
	id := int16(len(m.colors))
	m.colors = append(m.colors, c)
	m.color[c] = id
	return id
}

func (m *model) addNode(name string, attrs map[string]string) int {
	m.candCache = nil
	id := len(m.names)
	m.names = append(m.names, name)
	m.byName[name] = id
	m.attrs = append(m.attrs, copyAttrs(attrs))
	m.out = append(m.out, nil)
	return id
}

func (m *model) addEdge(from, to int, color string) {
	m.out[from] = append(m.out[from], medge{to: int32(to), color: m.colorID(color)})
	m.edges++
}

// removeEdge removes one edge from → to of the color and reports
// whether there was one.
func (m *model) removeEdge(from, to int, color string) bool {
	c, ok := m.color[color]
	if !ok {
		return false
	}
	es := m.out[from]
	for i, e := range es {
		if int(e.to) == to && e.color == c {
			m.out[from] = append(es[:i:i], es[i+1:]...)
			m.edges--
			return true
		}
	}
	return false
}

// cands lists the nodes matching p in id order. The slice is shared.
func (m *model) cands(p pred) []int {
	key := p.text()
	if c, ok := m.candCache[key]; ok {
		return c
	}
	var out []int
	for v := range m.names {
		if p.holds(m.attrs[v]) {
			out = append(out, v)
		}
	}
	if m.candCache == nil {
		m.candCache = map[string][]int{}
	}
	m.candCache[key] = out
	return out
}

// reach returns the nodes reachable from the source set through the
// atoms, in id order: per atom a bounded BFS of 1..max steps over edges
// of the atom's color, whose reached set seeds the next atom.
func (m *model) reach(srcs []int, atoms []atom) []int {
	cur := append([]int(nil), srcs...)
	for _, a := range atoms {
		any := a.color == wildcard
		c, known := m.color[a.color]
		if !any && !known {
			return nil
		}
		m.stamp++
		if len(m.seen) < len(m.names) {
			m.seen = make([]uint32, len(m.names)+1024)
			m.stamp = 1
		}
		var reached []int
		frontier := cur
		for step := 0; step < a.max && len(frontier) > 0; step++ {
			var next []int
			for _, u := range frontier {
				for _, e := range m.out[u] {
					if !any && e.color != c {
						continue
					}
					w := int(e.to)
					if m.seen[w] == m.stamp {
						continue
					}
					m.seen[w] = m.stamp
					reached = append(reached, w)
					next = append(next, w)
				}
			}
			frontier = next
		}
		cur = reached
	}
	sort.Ints(cur)
	return cur
}

// pair is one answer pair of node ids.
type pair struct{ from, to int }

// answerRQ evaluates an RQ.
func (m *model) answerRQ(q *rq) []pair {
	to := m.cands(q.to)
	isTo := make([]bool, m.numNodes())
	for _, v := range to {
		isTo[v] = true
	}
	var out []pair
	for _, v := range m.cands(q.from) {
		for _, w := range m.reach([]int{v}, q.atoms) {
			if isTo[w] {
				out = append(out, pair{v, w})
			}
		}
	}
	return out
}

// answerPQ evaluates a PQ as the maximum bounded simulation: start
// every pattern node's match set at its predicate's candidates and
// drop a node v from u's set while some pattern edge (u, u') has no
// match of u' reachable from v along the edge's expression. The answer
// is, per pattern edge, the pairs between the two final match sets
// that the expression connects; it is empty as a whole when any edge's
// set is empty. Pairs are returned per edge.
func (m *model) answerPQ(q *pq) [][]pair {
	n := m.numNodes()
	sim := make([][]bool, len(q.nodes))
	for u, p := range q.nodes {
		sim[u] = make([]bool, n)
		for _, v := range m.cands(p) {
			sim[u][v] = true
		}
	}
	// reachOf[e][v] is the set the edge's expression reaches from v,
	// computed once per candidate source.
	reachOf := make([]map[int][]int, len(q.edges))
	for i, e := range q.edges {
		reachOf[i] = map[int][]int{}
		for v := 0; v < n; v++ {
			if sim[e.from][v] {
				reachOf[i][v] = m.reach([]int{v}, e.atoms)
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for i, e := range q.edges {
			for v := 0; v < n; v++ {
				if !sim[e.from][v] {
					continue
				}
				ok := false
				for _, w := range reachOf[i][v] {
					if sim[e.to][w] {
						ok = true
						break
					}
				}
				if !ok {
					sim[e.from][v] = false
					changed = true
				}
			}
		}
	}
	out := make([][]pair, len(q.edges))
	for i, e := range q.edges {
		for v := 0; v < n; v++ {
			if !sim[e.from][v] {
				continue
			}
			for _, w := range reachOf[i][v] {
				if sim[e.to][w] {
					out[i] = append(out[i], pair{v, w})
				}
			}
		}
		if len(out[i]) == 0 {
			return nil
		}
	}
	return out
}

// digest is an order-independent fingerprint of an answer: its pair
// count and a sum of mixed pair hashes (each tagged with its pattern
// edge), so answers compare equal however the server orders them.
type digest struct {
	count int
	sum   uint64
}

func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func pairHash(edge int, from, to int64) uint64 {
	return mix(uint64(edge)<<56 ^ uint64(from)<<28 ^ uint64(to))
}

func (d *digest) add(edge int, from, to int64) {
	d.count++
	d.sum += pairHash(edge, from, to)
}

func digestRQ(ps []pair) digest {
	var d digest
	for _, p := range ps {
		d.add(0, int64(p.from), int64(p.to))
	}
	return d
}

func digestPQ(sets [][]pair) digest {
	var d digest
	for i, ps := range sets {
		for _, p := range ps {
			d.add(i, int64(p.from), int64(p.to))
		}
	}
	return d
}
