package corpus

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// referenceSuggest is the brute-force form of Suggest that the
// distinct-sentence index replaced: score every correct record on its
// own and sort all the candidates by (score desc, ID asc). The scoring
// arithmetic is kept operation for operation, so the index must match
// it exactly, scores included.
func referenceSuggest(records []Record, tokens, topics []string, limit int) []Suggestion {
	if limit <= 0 {
		limit = 3
	}
	query := uniqueContentTokens(tokens)
	if len(query) == 0 {
		return nil
	}
	inQuery := make(map[string]bool, len(query))
	for _, t := range query {
		inQuery[t] = true
	}
	topicSet := make(map[string]bool, len(topics))
	for _, t := range topics {
		topicSet[t] = true
	}
	var cands []Suggestion
	for _, r := range records {
		if r.Verdict != VerdictCorrect {
			continue
		}
		content := uniqueContentTokens(r.Tokens)
		shared := 0
		for _, t := range content {
			if inQuery[t] {
				shared++
			}
		}
		if shared == 0 {
			continue // no posting of the query reaches this record
		}
		union := len(content) + len(query) - shared
		if union <= 0 {
			continue
		}
		score := float64(shared) / float64(union)
		for _, topic := range r.Topics {
			if topicSet[topic] {
				score += 0.25
			}
		}
		cands = append(cands, Suggestion{Record: r, Score: score})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].Score != cands[j].Score {
			return cands[i].Score > cands[j].Score
		}
		return cands[i].Record.ID < cands[j].Record.ID
	})
	if len(cands) > limit {
		cands = cands[:limit]
	}
	if len(cands) == 0 {
		return nil
	}
	return cands
}

// oracleVocab mixes stopwords (dropped from content) with a handful of
// content words, so random sentences collide often and many distinct
// sentences tie on score.
var oracleVocab = []string{"the", "a", "has", "is", "of", "stack", "queue", "push", "pop", "tree", "node", "list", "insert"}

var oracleTopics = []string{"stack", "queue", "tree", "list"}

func randomWords(rng *rand.Rand, pool []string, max int) []string {
	n := rng.Intn(max + 1)
	if n == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = pool[rng.Intn(len(pool))]
	}
	return out
}

// randomRecord draws a record from a small sentence pool: the same
// Text recurs with other Topics, and now and then with other Tokens,
// so groups chain under one Text and duplicates are common.
func randomRecord(rng *rand.Rand, texts [][]string, i int) Record {
	tokens := texts[rng.Intn(len(texts))]
	text := strings.Join(tokens, " ")
	if rng.Intn(8) == 0 {
		tokens = append(append([]string(nil), tokens...), oracleVocab[rng.Intn(len(oracleVocab))])
	}
	r := Record{
		Time:    time.Unix(int64(1000+i), 0).UTC(),
		Room:    fmt.Sprintf("room%d", rng.Intn(3)),
		Text:    text,
		Tokens:  append([]string(nil), tokens...),
		Verdict: Verdict(rng.Intn(int(VerdictQuestion) + 1)),
		Topics:  randomWords(rng, oracleTopics, 2),
	}
	if rng.Intn(2) == 0 {
		r.Verdict = VerdictCorrect // keep the index well populated
	}
	if r.Verdict == VerdictSyntaxError {
		r.ErrorTokens = []int{0}
		r.Tags = []string{"agreement"}
	}
	return r
}

func checkAgainstReference(t *testing.T, s *Store, rng *rand.Rand, queries int, context string) {
	t.Helper()
	all := s.All()
	for q := 0; q < queries; q++ {
		tokens := randomWords(rng, oracleVocab, 6)
		topics := randomWords(rng, oracleTopics, 2)
		limit := rng.Intn(4) // 0 means the default, 3
		got := s.Suggest(tokens, topics, limit)
		want := referenceSuggest(all, tokens, topics, limit)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Suggest(%q, %q, %d)\n got %+v\nwant %+v", context, tokens, topics, limit, got, want)
		}
	}
}

func TestSuggestMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		texts := make([][]string, 12)
		for i := range texts {
			texts[i] = randomWords(rng, oracleVocab, 5)
		}
		s := NewStore()
		// model is the log the store must keep: every ID once, in
		// first-insertion order, holding its last version.
		var order []int64
		model := make(map[int64]Record)
		for i := 0; i < 300; i++ {
			r := randomRecord(rng, texts, i)
			switch op := rng.Intn(10); {
			case op < 6 || len(order) == 0:
				id := s.Add(r)
				r.ID = id
				order = append(order, id)
			case op < 9:
				// Replace: the record can move into, out of or between
				// groups, or stay in its own.
				r.ID = order[rng.Intn(len(order))]
				s.Put(r)
			default:
				// A new ID past a gap; later Adds fill in above it, and
				// group IDs must stay ascending.
				r.ID = int64(len(order)) + 3 + int64(rng.Intn(5))
				if _, ok := model[r.ID]; !ok {
					order = append(order, r.ID)
				}
				s.Put(r)
			}
			model[r.ID] = r
			if i%25 == 24 {
				checkAgainstReference(t, s, rng, 40, fmt.Sprintf("seed %d after %d ops", seed, i+1))
			}
		}

		// The log is untouched by the index: every record counted and
		// returned exactly as given.
		if got, want := s.Len(), len(order); got != want {
			t.Fatalf("seed %d: Len = %d, want %d", seed, got, want)
		}
		want := make([]Record, len(order))
		for i, id := range order {
			want[i] = model[id]
		}
		if got := s.All(); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: All differs from the records given", seed)
		}

		var first, second bytes.Buffer
		if err := s.SaveJSONL(&first); err != nil {
			t.Fatal(err)
		}
		loaded, err := LoadJSONL(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if err := loaded.SaveJSONL(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("seed %d: SaveJSONL -> LoadJSONL -> SaveJSONL changed the bytes", seed)
		}
		if got := loaded.Len(); got != len(order) {
			t.Fatalf("seed %d: loaded Len = %d, want %d", seed, got, len(order))
		}
		if got := loaded.All(); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: loaded All differs", seed)
		}
		checkAgainstReference(t, loaded, rng, 100, fmt.Sprintf("seed %d loaded", seed))
	}
}

func TestSuggestTiesAcrossGroups(t *testing.T) {
	// Three distinct sentences with the same score, each said several
	// times in interleaved order: the top three are the three lowest
	// IDs overall, not the first member of each group.
	s := NewStore()
	for i := 0; i < 4; i++ {
		for _, text := range []string{"stack push", "stack pop", "stack node"} {
			s.Add(Record{Text: text, Tokens: strings.Fields(text), Verdict: VerdictCorrect})
		}
	}
	s.Put(Record{ID: 2, Text: "stack push", Tokens: []string{"stack", "push"}, Verdict: VerdictCorrect})
	query := []string{"stack", "list"}
	for limit := 1; limit <= 3; limit++ {
		got := s.Suggest(query, nil, limit)
		if want := referenceSuggest(s.All(), query, nil, limit); !reflect.DeepEqual(got, want) {
			t.Fatalf("limit %d: got %+v, want %+v", limit, got, want)
		}
	}
	got := s.Suggest(query, nil, 3)
	var ids []int64
	for _, sg := range got {
		ids = append(ids, sg.Record.ID)
	}
	if !reflect.DeepEqual(ids, []int64{1, 2, 3}) {
		t.Errorf("ids = %v, want [1 2 3]", ids)
	}
}

func TestReturnedRecordsDoNotAliasTheIndex(t *testing.T) {
	s := NewStore()
	mk := func() Record {
		return Record{
			Text: "the stack has push", Tokens: []string{"the", "stack", "has", "push"},
			Verdict: VerdictCorrect, Topics: []string{"stack"}, Tags: []string{"t"}, ErrorTokens: []int{1},
		}
	}
	s.Add(mk())
	s.Add(mk())
	clobber := func(r *Record) {
		r.Tokens[1] = "queue"
		r.Topics[0] = "queue"
		r.Tags[0] = "x"
		r.ErrorTokens[0] = 9
	}
	for _, sg := range s.Suggest([]string{"stack"}, nil, 3) {
		clobber(&sg.Record)
	}
	r, _ := s.ByID(1)
	clobber(&r)
	for _, r := range s.All() {
		clobber(&r)
	}
	for _, r := range s.ByTopic("stack") {
		clobber(&r)
	}

	want := mk()
	want.ID = 1
	got, _ := s.ByID(1)
	got.Time = time.Time{}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("store record changed through a returned copy: %+v", got)
	}
	// The sentence's group is intact: a third copy joins it, and a
	// query for the clobbered token finds nothing.
	s.Add(mk())
	if got := s.Suggest([]string{"stack"}, []string{"stack"}, 3); len(got) != 3 || got[2].Record.ID != 3 {
		t.Errorf("Suggest(stack) = %+v, want records 1, 2, 3", got)
	}
	if got := s.Suggest([]string{"queue"}, nil, 3); got != nil {
		t.Errorf("Suggest(queue) = %+v, want none", got)
	}
}

func TestConcurrentAddPutSuggest(t *testing.T) {
	// Writers join and leave groups while readers score them; run with
	// -race. Afterwards the index must still agree with the reference.
	s := NewStore()
	texts := []string{"the stack has push", "the queue has enqueue", "the tree has node"}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				text := texts[(w+i)%len(texts)]
				r := Record{Text: text, Tokens: strings.Fields(text), Verdict: VerdictCorrect, Topics: oracleTopics[w%2 : w%2+1]}
				switch {
				case w%2 == 1 && i%5 == 4:
					r.ID = int64(i/5 + 1)
					s.Put(r)
				default:
					s.Add(r)
				}
				s.Suggest([]string{"stack", "queue", "node"}, []string{"stack"}, 2)
			}
		}(w)
	}
	wg.Wait()
	checkAgainstReference(t, s, rand.New(rand.NewSource(1)), 50, "after concurrent writers")
}
