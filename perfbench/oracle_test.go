package main

import (
	"sort"
	"testing"
)

// essembly is the paper's Fig. 1 network, built by hand into a model.
func essembly() *model {
	m := newModel()
	for _, n := range []struct {
		name  string
		attrs map[string]string
	}{
		{"B1", map[string]string{"job": "doctor"}},
		{"B2", map[string]string{"job": "doctor"}},
		{"C1", map[string]string{"job": "biologist", "sp": "cloning"}},
		{"C2", map[string]string{"job": "biologist", "sp": "cloning"}},
		{"C3", map[string]string{"job": "biologist", "sp": "cloning"}},
		{"D1", map[string]string{"uid": "Alice001"}},
		{"H1", map[string]string{"job": "physician"}},
	} {
		m.addNode(n.name, n.attrs)
	}
	for _, e := range [][3]string{
		{"C1", "C2", "fa"}, {"C2", "C1", "fa"}, {"C2", "C3", "fa"}, {"C3", "C1", "fa"},
		{"C3", "B1", "fn"}, {"C3", "B2", "fn"}, {"B1", "D1", "fn"}, {"B2", "D1", "fn"},
		{"B1", "C3", "sn"}, {"B2", "C3", "sn"}, {"C1", "D1", "sa"}, {"H1", "C1", "sa"},
		{"D1", "H1", "fa"},
	} {
		m.addEdge(m.byName[e[0]], m.byName[e[1]], e[2])
	}
	return m
}

func named(m *model, ps []pair) []string {
	var out []string
	for _, p := range ps {
		out = append(out, m.names[p.from]+">"+m.names[p.to])
	}
	sort.Strings(out)
	return out
}

func eq(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

var (
	bio    = pred{{"job", "=", "biologist"}}
	doctor = pred{{"job", "=", "doctor"}}
	alice  = pred{{"uid", "=", "Alice001"}}
)

func TestOracleRQ(t *testing.T) {
	m := essembly()
	for _, tc := range []struct {
		name string
		q    rq
		want []string
	}{
		// Example 2.2: at most two fa edges, then one fn edge. C3 reaches
		// the doctors directly by fn, but the expression needs an fa first.
		{"example 2.2", rq{pred{{"job", "=", "biologist"}, {"sp", "=", "cloning"}}, doctor, []atom{{"fa", 2}, {"fn", 1}}},
			[]string{"C1>B1", "C1>B2", "C2>B1", "C2>B2"}},
		// A single fa edge: no node reaches itself in one step.
		{"one step", rq{bio, bio, []atom{{"fa", 1}}}, []string{"C1>C2", "C2>C1", "C2>C3", "C3>C1"}},
		// Up to three fa edges: every biologist is on a cycle, so self
		// pairs appear (non-empty paths only).
		{"cycles", rq{bio, bio, []atom{{"fa", 3}}},
			[]string{"C1>C1", "C1>C2", "C1>C3", "C2>C1", "C2>C2", "C2>C3", "C3>C1", "C3>C2", "C3>C3"}},
		{"wildcard", rq{alice, nil, []atom{{wildcard, 2}}}, []string{"D1>C1", "D1>H1"}},
		{"unknown color", rq{nil, nil, []atom{{"zz", 3}}}, nil},
		// Two atoms: fn then fn reaches Alice from C3 only.
		{"two atoms", rq{nil, alice, []atom{{"fn", 1}, {"fn", 1}}}, []string{"C3>D1"}},
	} {
		if got := named(m, m.answerRQ(&tc.q)); !eq(got, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestOraclePredicates(t *testing.T) {
	m := newModel()
	a := m.addNode("a", map[string]string{"age": "5", "cat": "Film & Animation"})
	b := m.addNode("b", map[string]string{"age": "15"})
	m.addEdge(a, b, "c")
	for _, tc := range []struct {
		p    pred
		want []int
	}{
		{pred{{"age", "<", "10"}}, []int{a}},
		{pred{{"age", ">=", "15"}}, []int{b}},
		{pred{{"age", "<=", "15"}, {"age", ">", "5"}}, []int{b}},
		{pred{{"cat", "=", "Film & Animation"}}, []int{a}},
		{pred{{"missing", "=", "x"}}, nil},
		{nil, []int{a, b}},
	} {
		got := m.cands(tc.p)
		if len(got) != len(tc.want) || (len(got) > 0 && got[0] != tc.want[0]) {
			t.Errorf("%v: got %v, want %v", tc.p, got, tc.want)
		}
	}
	if got, want := (pred{{"cat", "=", "Film & Animation"}, {"age", "<", "9"}}).text(), `cat = "Film & Animation", age < 9`; got != want {
		t.Errorf("text: got %q, want %q", got, want)
	}
}

func TestOraclePQ(t *testing.T) {
	m := essembly()
	for _, tc := range []struct {
		name string
		q    pq
		want [][]string
	}{
		// Biologists with an fn edge to a doctor who has an fn edge to
		// Alice: only C3 survives the simulation.
		{"chain", pq{[]pred{bio, doctor, alice}, []pedge{{0, 1, []atom{{"fn", 1}}}, {1, 2, []atom{{"fn", 1}}}}},
			[][]string{{"C3>B1", "C3>B2"}, {"B1>D1", "B2>D1"}}},
		// A two-node cycle over fa: every biologist keeps a successor.
		{"cycle", pq{[]pred{bio, bio}, []pedge{{0, 1, []atom{{"fa", 1}}}, {1, 0, []atom{{"fa", 1}}}}},
			[][]string{{"C1>C2", "C2>C1", "C2>C3", "C3>C1"}, {"C1>C2", "C2>C1", "C2>C3", "C3>C1"}}},
		// The physician's only sa edge leads to a biologist, so the last
		// pattern node has no match and the whole answer is empty.
		{"empty", pq{[]pred{doctor, alice, {{"job", "=", "physician"}}, doctor},
			[]pedge{{0, 1, []atom{{"fn", 1}}}, {1, 2, []atom{{"fa", 1}}}, {2, 3, []atom{{"sa", 1}}}}}, nil},
		// Pruning propagates: only C3 has an fn edge to a doctor, so u1
		// keeps C3 alone, and then u0 keeps only C2, the one biologist
		// with an fa edge to C3.
		{"propagate", pq{[]pred{bio, bio, doctor}, []pedge{{0, 1, []atom{{"fa", 1}}}, {1, 2, []atom{{"fn", 1}}}}},
			[][]string{{"C2>C3"}, {"C3>B1", "C3>B2"}}},
	} {
		got := m.answerPQ(&tc.q)
		if len(got) != len(tc.want) {
			t.Errorf("%s: %d edge sets, want %d", tc.name, len(got), len(tc.want))
			continue
		}
		for i := range got {
			if g := named(m, got[i]); !eq(g, tc.want[i]) {
				t.Errorf("%s edge %d: got %v, want %v", tc.name, i, g, tc.want[i])
			}
		}
	}
}

func TestOracleWrites(t *testing.T) {
	m := essembly()
	q := rq{bio, doctor, []atom{{"fa", 2}, {"fn", 1}}}
	for _, o := range []mop{
		{Op: "remove_edge", From: "C3", To: "B2", Color: "fn"},
		{Op: "add_node", Node: "B3", Attrs: map[string]string{"job": "doctor"}},
		{Op: "add_edge", From: "C3", To: "B3", Color: "fn"},
		{Op: "set_attr", Node: "C2", Attrs: map[string]string{"job": "chemist"}},
	} {
		if !m.apply(&o) {
			t.Fatalf("op %+v failed", o)
		}
	}
	if m.apply(&mop{Op: "remove_edge", From: "C3", To: "B2", Color: "fn"}) {
		t.Fatal("removing a missing edge succeeded")
	}
	if got, want := named(m, m.answerRQ(&q)), []string{"C1>B1", "C1>B3"}; !eq(got, want) {
		t.Errorf("after writes: got %v, want %v", got, want)
	}
	if m.edges != 13 || m.numNodes() != 8 {
		t.Errorf("model has %d nodes %d edges, want 8 and 13", m.numNodes(), m.edges)
	}
}

func TestParseResponse(t *testing.T) {
	rqLine := []byte(`{"id":7,"kind":"rq","count":2,"pairs":[[0,3],[7,3]],"latency_us":412}`)
	f, err := parseResponse(rqLine)
	if err != nil || f.id != 7 || f.count != 2 || f.hasErr {
		t.Fatalf("rq line: %+v %v", f, err)
	}
	if want := digestRQ([]pair{{7, 3}, {0, 3}}); f.pairs != want {
		t.Errorf("rq digest %+v, want %+v (order must not matter)", f.pairs, want)
	}
	pqLine := []byte(`{"id":2,"kind":"pq","count":3,"match":[{"from":"u0","to":"u1","expr":"fn{2}","pairs":[[4,9],[5,9]]},{"from":"u1","to":"u2","expr":"fa","pairs":[[9,1]]}],"latency_us":88}`)
	f, err = parseResponse(pqLine)
	if err != nil || f.count != 3 {
		t.Fatalf("pq line: %+v %v", f, err)
	}
	if want := digestPQ([][]pair{{{4, 9}, {5, 9}}, {{9, 1}}}); f.pairs != want {
		t.Errorf("pq digest %+v, want %+v", f.pairs, want)
	}
	if swapped := digestPQ([][]pair{{{9, 1}}, {{4, 9}, {5, 9}}}); f.pairs == swapped {
		t.Error("pq digest ignores which edge a pair belongs to")
	}
	f, err = parseResponse([]byte(`{"id":3,"error":"qlang: bad","latency_us":0}`))
	if err != nil || !f.hasErr || f.id != 3 {
		t.Errorf("error line: %+v %v", f, err)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("got %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
	// statistics.quantiles([1,2,4,8,16], n=4) == [1.5, 4.0, 12.0]
	q1, med, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || med != 4 || q3 != 12 {
		t.Errorf("got %v %v %v, want 1.5 4 12", q1, med, q3)
	}
}
