// Package corpus implements the Learner Corpus database of the paper:
// every supervised utterance is recorded with its verdict and tags, and
// the store answers the Learning_Angel's "suitable sentence" queries —
// given a broken sentence, retrieve similar correct sentences to show
// the learner.
package corpus

import (
	"bufio"
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strings"
	"sync"
	"time"

	"semagent/internal/sentence"
)

// Verdict classifies a recorded utterance.
type Verdict int8

// Verdicts attached to corpus records.
const (
	VerdictUnknown       Verdict = iota // not yet assessed
	VerdictCorrect                      // parsed and semantically plausible
	VerdictSyntaxError                  // rejected by the Learning_Angel
	VerdictSemanticError                // the paper's "Interrogative Sentence"
	VerdictQuestion                     // routed to the QA system
)

// String names the verdict.
func (v Verdict) String() string {
	switch v {
	case VerdictCorrect:
		return "correct"
	case VerdictSyntaxError:
		return "syntax-error"
	case VerdictSemanticError:
		return "semantic-error"
	case VerdictQuestion:
		return "question"
	default:
		return "unknown"
	}
}

// Record is one corpus entry. Every Record the store hands out (ByID,
// All, ByTopic, Suggest) is a deep copy, so a caller may mutate it
// without touching the store or its suggestion index.
type Record struct {
	ID      int64     `json:"id"`
	Time    time.Time `json:"time"`
	Room    string    `json:"room,omitempty"`
	User    string    `json:"user,omitempty"`
	Text    string    `json:"text"`
	Tokens  []string  `json:"tokens"`
	Verdict Verdict   `json:"verdict"`
	// ErrorTokens indexes Tokens the parser had to skip (grammar-error
	// locations).
	ErrorTokens []int `json:"errorTokens,omitempty"`
	// Topics are the ontology terms mentioned.
	Topics []string `json:"topics,omitempty"`
	// Tags carries free-form labels ("agreement", "determiner", ...).
	Tags []string `json:"tags,omitempty"`
}

// clone returns a copy of r that shares no slice memory with it.
func (r *Record) clone() Record {
	out := *r
	out.Tokens = append([]string(nil), r.Tokens...)
	out.ErrorTokens = append([]int(nil), r.ErrorTokens...)
	out.Topics = append([]string(nil), r.Topics...)
	out.Tags = append([]string(nil), r.Tags...)
	return out
}

// group is one distinct correct sentence of the suggestion index. A
// query's score for a record depends only on the record's Tokens and
// Topics, so every correct record sharing both is scored once, as a
// group, however often learners have said it.
type group struct {
	// tokens and topics are the key; member records share these
	// slices, which the store never mutates.
	tokens []string
	topics []string
	// contentLen is len(uniqueContentTokens(tokens)): Suggest's Jaccard
	// union needs only the count.
	contentLen int
	ids        []int64 // member record IDs, ascending
	next       *group  // next group whose records have the same Text
}

// Observer is the write-ahead-log hook: it receives every mutation
// (the final record, ID assigned) and returns the log sequence number
// the mutation was journaled under. It is invoked while the store lock
// is held, so the store's state and its JournalLSN always move
// together — the durability subsystem (internal/journal) relies on
// that atomicity to take exact checkpoints. A nil observer disables
// journaling.
type Observer func(Record) uint64

// Store is the in-memory learner corpus. It keeps every record it is
// given (the log Len, All, SaveJSONL and journal recovery read), plus a
// suggestion index over the distinct correct sentences among them.
type Store struct {
	mu      sync.RWMutex
	records []*Record
	byID    map[int64]*Record
	nextID  int64

	// The suggestion index: byText chains the groups of each record
	// Text (so finding a known sentence's group hashes a string and
	// allocates nothing), byToken posts each group under its unique
	// content tokens.
	byText  map[string]*group
	byToken map[string][]*group

	// observer and lsn implement the journal hook: lsn is the highest
	// WAL sequence number reflected in the store's state, persisted by
	// SaveJSONL and used on recovery to skip already-applied records.
	observer Observer
	lsn      uint64
}

// SetObserver installs the journal hook (nil to detach).
func (s *Store) SetObserver(fn Observer) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.observer = fn
}

// JournalLSN returns the highest WAL sequence number reflected in the
// store's state (0 when the store has never been journaled).
func (s *Store) JournalLSN() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.lsn
}

// SetJournalLSN records the WAL position the state corresponds to
// (used by recovery after replaying the journal).
func (s *Store) SetJournalLSN(v uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.lsn = v
}

// NewStore returns an empty corpus.
func NewStore() *Store {
	return &Store{
		byID:    make(map[int64]*Record),
		byText:  make(map[string]*group),
		byToken: make(map[string][]*group),
		nextID:  1,
	}
}

// Add records an utterance and returns its assigned ID. The record is
// copied; the caller keeps ownership of its argument.
func (s *Store) Add(r Record) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	r.ID = s.nextID
	s.nextID++
	if r.Time.IsZero() {
		r.Time = time.Now()
	}
	rec := r
	g := s.adopt(&rec)
	s.records = append(s.records, &rec)
	s.byID[rec.ID] = &rec
	s.index(&rec, g)
	if s.observer != nil {
		s.lsn = s.observer(rec)
	}
	return rec.ID
}

// Put inserts a record under its explicit ID, replacing any existing
// record with that ID (last write wins). It is the journal-replay
// counterpart of Add: IDs come from the log, not the store's counter,
// and the observer is not notified.
func (s *Store) Put(r Record) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.putLocked(r)
}

func (s *Store) putLocked(r Record) {
	old, replace := s.byID[r.ID]
	if replace {
		// The old version may belong to another group than the new
		// one, or to none: take it out before indexing the new one.
		s.unindex(old)
	}
	stored := r
	g := s.adopt(&stored)
	rec := &stored
	if replace {
		// The records slice and byID share the *Record: overwrite it.
		*old = stored
		rec = old
	} else {
		s.records = append(s.records, rec)
		s.byID[rec.ID] = rec
	}
	s.index(rec, g)
	if rec.ID >= s.nextID {
		s.nextID = rec.ID + 1
	}
}

// adopt replaces r's slices with ones the store owns and returns the
// index group r joins, if the index already holds its sentence; r
// then shares that group's Tokens and Topics instead of copying them.
func (s *Store) adopt(r *Record) *group {
	g := s.groupOf(r)
	if g != nil {
		r.Tokens, r.Topics = g.tokens, g.topics
	} else {
		r.Tokens = append([]string(nil), r.Tokens...)
		r.Topics = append([]string(nil), r.Topics...)
	}
	r.ErrorTokens = append([]int(nil), r.ErrorTokens...)
	r.Tags = append([]string(nil), r.Tags...)
	return g
}

// groupOf returns the index group r belongs to, or nil when r is not a
// correct sentence or no indexed record shares its Tokens and Topics.
func (s *Store) groupOf(r *Record) *group {
	if r.Verdict != VerdictCorrect {
		return nil
	}
	for g := s.byText[r.Text]; g != nil; g = g.next {
		if slices.Equal(g.tokens, r.Tokens) && slices.Equal(g.topics, r.Topics) {
			return g
		}
	}
	return nil
}

// index adds a stored record to the suggestion index, joining g, the
// group adopt found for it, or starting a new group when g is nil.
func (s *Store) index(r *Record, g *group) {
	if r.Verdict != VerdictCorrect {
		return
	}
	if g != nil {
		i, _ := slices.BinarySearch(g.ids, r.ID)
		g.ids = slices.Insert(g.ids, i, r.ID)
		return
	}
	content := uniqueContentTokens(r.Tokens)
	g = &group{tokens: r.Tokens, topics: r.Topics, contentLen: len(content), ids: []int64{r.ID}, next: s.byText[r.Text]}
	s.byText[r.Text] = g
	for _, t := range content {
		s.byToken[t] = append(s.byToken[t], g)
	}
}

// unindex removes a stored record from the suggestion index, dropping
// its group once the group has no records left.
func (s *Store) unindex(r *Record) {
	g := s.groupOf(r)
	if g == nil {
		return
	}
	if i, ok := slices.BinarySearch(g.ids, r.ID); ok {
		g.ids = slices.Delete(g.ids, i, i+1)
	}
	if len(g.ids) > 0 {
		return
	}
	if head := s.byText[r.Text]; head == g {
		if g.next == nil {
			delete(s.byText, r.Text)
		} else {
			s.byText[r.Text] = g.next
		}
	} else {
		for prev := head; prev != nil; prev = prev.next {
			if prev.next == g {
				prev.next = g.next
				break
			}
		}
	}
	for _, t := range uniqueContentTokens(g.tokens) {
		if kept := slices.DeleteFunc(s.byToken[t], func(x *group) bool { return x == g }); len(kept) > 0 {
			s.byToken[t] = kept
		} else {
			delete(s.byToken, t)
		}
	}
}

// Len returns the number of records.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.records)
}

// ByID returns a copy of the record with the given ID.
func (s *Store) ByID(id int64) (Record, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	r, ok := s.byID[id]
	if !ok {
		return Record{}, false
	}
	return r.clone(), true
}

// All returns copies of every record in insertion order.
func (s *Store) All() []Record {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]Record, len(s.records))
	for i, r := range s.records {
		out[i] = r.clone()
	}
	return out
}

// CountByVerdict aggregates record counts per verdict.
func (s *Store) CountByVerdict() map[Verdict]int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[Verdict]int)
	for _, r := range s.records {
		out[r.Verdict]++
	}
	return out
}

// Suggestion is a corpus sentence offered to a learner.
type Suggestion struct {
	Record Record
	Score  float64
}

// Suggest returns up to limit correct corpus sentences similar to the
// given tokens, best first. Similarity is a weighted Jaccard overlap of
// content tokens with a bonus for shared ontology topics — the
// "search for the suitable sentences from Learner Corpus" step of the
// paper's Figure 4.
func (s *Store) Suggest(tokens []string, topics []string, limit int) []Suggestion {
	if limit <= 0 {
		limit = 3
	}
	query := uniqueContentTokens(tokens)
	if len(query) == 0 {
		return nil
	}
	topicSet := make(map[string]bool, len(topics))
	for _, t := range topics {
		topicSet[t] = true
	}

	s.mu.RLock()
	defer s.mu.RUnlock()
	// Count shared query tokens per distinct sentence.
	hits := make(map[*group]int)
	for _, t := range query {
		for _, g := range s.byToken[t] {
			hits[g]++
		}
	}
	// Score each distinct sentence once, keeping the best limit groups
	// by (score desc, lowest ID asc) in a bounded insertion. Every
	// record of the overall top limit lies in one of these groups: a
	// record in any other group is outranked by the lowest-ID record
	// of each of the limit groups kept ahead of its own.
	type ranked struct {
		g     *group
		score float64
	}
	// Sized for limit <= 3 (the default; the agents ask for 1 or 2), so
	// the common query keeps best and cands off the heap.
	var bestBuf [4]ranked
	best := bestBuf[:0]
	for g, shared := range hits {
		union := g.contentLen + len(query) - shared
		if union <= 0 {
			continue
		}
		score := float64(shared) / float64(union)
		for _, topic := range g.topics {
			if topicSet[topic] {
				score += 0.25
			}
		}
		i := len(best)
		for i > 0 && (score > best[i-1].score || score == best[i-1].score && g.ids[0] < best[i-1].g.ids[0]) {
			i--
		}
		if i < limit {
			best = slices.Insert(best, i, ranked{g: g, score: score})
			best = best[:min(len(best), limit)]
		}
	}
	if len(best) == 0 {
		return nil
	}
	// Expand the kept groups to records (the lowest limit IDs of each
	// suffice) and rank those by (score desc, ID asc).
	type scored struct {
		id    int64
		score float64
	}
	var candBuf [9]scored
	cands := candBuf[:0]
	for _, b := range best {
		for _, id := range b.g.ids[:min(len(b.g.ids), limit)] {
			cands = append(cands, scored{id: id, score: b.score})
		}
	}
	slices.SortFunc(cands, func(a, b scored) int {
		if c := cmp.Compare(b.score, a.score); c != 0 {
			return c
		}
		return cmp.Compare(a.id, b.id)
	})
	cands = cands[:min(len(cands), limit)]
	out := make([]Suggestion, len(cands))
	for i, c := range cands {
		out[i] = Suggestion{Record: s.byID[c.id].clone(), Score: c.score}
	}
	return out
}

// ByTopic returns copies of records mentioning the given ontology term.
func (s *Store) ByTopic(topic string) []Record {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []Record
	for _, r := range s.records {
		for _, t := range r.Topics {
			if t == topic {
				out = append(out, r.clone())
				break
			}
		}
	}
	return out
}

// jsonlHeader is the optional first line of a journaled JSONL store
// file, recording the WAL position the snapshot corresponds to.
type jsonlHeader struct {
	JournalLSN uint64 `json:"journalLSN"`
}

// jsonlHeaderPrefix distinguishes the header from record lines (records
// never start with this key).
const jsonlHeaderPrefix = `{"journalLSN":`

// SaveJSONL writes the corpus as JSON lines. When the store has been
// journaled, a header line records the WAL position the snapshot
// covers; loaders without journaling simply skip it.
func (s *Store) SaveJSONL(w io.Writer) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if s.lsn > 0 {
		if err := enc.Encode(jsonlHeader{JournalLSN: s.lsn}); err != nil {
			return fmt.Errorf("encode corpus header: %w", err)
		}
	}
	for _, r := range s.records {
		if err := enc.Encode(r); err != nil {
			return fmt.Errorf("encode corpus record %d: %w", r.ID, err)
		}
	}
	return bw.Flush()
}

// LoadJSONL reads JSON lines into a fresh store, preserving record IDs.
// Duplicate IDs resolve last-write-wins (a journal replayed over a
// checkpoint may legitimately rewrite a record), so Len/All/
// CountByVerdict never double-count.
func LoadJSONL(r io.Reader) (*Store, error) {
	s := NewStore()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	line := 0
	s.mu.Lock()
	defer s.mu.Unlock()
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		if strings.HasPrefix(text, jsonlHeaderPrefix) {
			var h jsonlHeader
			if err := json.Unmarshal([]byte(text), &h); err != nil {
				return nil, fmt.Errorf("corpus header line %d: %w", line, err)
			}
			s.lsn = h.JournalLSN
			continue
		}
		var rec Record
		if err := json.Unmarshal([]byte(text), &rec); err != nil {
			return nil, fmt.Errorf("corpus line %d: %w", line, err)
		}
		s.putLocked(rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("read corpus: %w", err)
	}
	return s, nil
}

func uniqueContentTokens(tokens []string) []string {
	seen := make(map[string]bool, len(tokens))
	out := make([]string, 0, len(tokens))
	for _, t := range sentence.ContentTokens(tokens) {
		if !seen[t] {
			seen[t] = true
			out = append(out, t)
		}
	}
	return out
}
