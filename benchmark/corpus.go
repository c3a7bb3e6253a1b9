package main

import (
	"fmt"
	"math/rand"
	"strings"

	"github.com/sparql-hsp/hsp/internal/sparql"
)

// The plan-cold corpus: a dozen lookup intents over the SP²Bench data,
// each spelled many ways after Loizou & Groth — pattern order permuted,
// the entity constant inline or as FILTER(?e = c), the FILTER early or
// late, OPTIONAL groups, UNION branches and the SELECT list reordered,
// a long PREFIX block or none. Every template is selective (an entity lookup, a row
// or two), so planning, not execution, is the work.

const corpusSize = 4096

// entitiesPerIntent bounds how many (intent, entity) instances need a
// reference answer; 64 entities give every intent, the three-pattern
// ones included, enough distinct spellings to fill its share.
const entitiesPerIntent = 64

const (
	fullPrefixes = `PREFIX rdf:     <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
PREFIX rdfs:    <http://www.w3.org/2000/01/rdf-schema#>
PREFIX bench:   <http://localhost/vocabulary/bench/>
PREFIX dc:      <http://purl.org/dc/elements/1.1/>
PREFIX dcterms: <http://purl.org/dc/terms/>
PREFIX foaf:    <http://xmlns.com/foaf/0.1/>
PREFIX swrc:    <http://swrc.ontoware.org/ontology#>
PREFIX xsd:     <http://www.w3.org/2001/XMLSchema#>
PREFIX owl:     <http://www.w3.org/2002/07/owl#>
`
	dataNS = "http://localhost/publications/"
)

var prefixIRIs = map[string]string{
	"rdf":     "http://www.w3.org/1999/02/22-rdf-syntax-ns#",
	"rdfs":    "http://www.w3.org/2000/01/rdf-schema#",
	"bench":   "http://localhost/vocabulary/bench/",
	"dc":      "http://purl.org/dc/elements/1.1/",
	"dcterms": "http://purl.org/dc/terms/",
	"foaf":    "http://xmlns.com/foaf/0.1/",
	"swrc":    "http://swrc.ontoware.org/ontology#",
}

// intent is one question about an entity ?e. Each branch is a list of
// required triple patterns (one branch unless the intent is a UNION);
// optionals are OPTIONAL groups appended to the only branch.
type intent struct {
	name      string
	entity    func(unit, i int) string // IRI of the i-th entity of the kind asked about
	pool      func(unit int) int       // how many such entities the generator emits
	project   string
	branches  [][]string
	optionals []string
}

func year(i int) int { return 1940 + i%25 }

func articleIRI(_, i int) string { return fmt.Sprintf("%sarticle/A%d", dataNS, i) }
func inprocIRI(_, i int) string  { return fmt.Sprintf("%sinproc/Inproceeding%d", dataNS, i) }
func personIRI(_, i int) string  { return fmt.Sprintf("%sperson/P%d", dataNS, i) }
func procIRI(_, i int) string {
	return fmt.Sprintf("%sproc/Proceeding%d/%d", dataNS, i+1, year(i))
}
func journalIRI(_, i int) string {
	return fmt.Sprintf("%sjournal/Journal%d/%d", dataNS, i/25+1, year(i))
}

func times(k int) func(int) int { return func(unit int) int { return k * unit } }
func halfUnit(unit int) int {
	if unit < 2 {
		return 1
	}
	return unit / 2
}

// Every intent is a star around the entity: with the entity bound, each
// pattern touches a handful of triples, so execution costs next to
// nothing and the request's time is the front end's. (A chain such as
// article → journal → title costs the executor a merge-join walk whose
// length depends on where the journal sorts — up to several times the
// planning — and would put lat_p95_ms at the mercy of the entity draw.)
var intents = []intent{
	{name: "article-card", entity: articleIRI, pool: times(2), project: "?t ?yr ?pg ?j",
		branches: [][]string{{"?e rdf:type bench:Article", "?e dc:title ?t", "?e dcterms:issued ?yr", "?e swrc:pages ?pg", "?e swrc:journal ?j"}}},
	{name: "article-extras", entity: articleIRI, pool: times(2), project: "?pg ?yr ?t ?mo ?cd",
		branches:  [][]string{{"?e swrc:pages ?pg", "?e dcterms:issued ?yr", "?e dc:title ?t"}},
		optionals: []string{"?e swrc:month ?mo", "?e bench:cdrom ?cd"}},
	{name: "article-creator", entity: articleIRI, pool: times(2), project: "?p ?t ?yr",
		branches: [][]string{{"?e dc:creator ?p", "?e dc:title ?t", "?e dcterms:issued ?yr", "?e rdf:type bench:Article"}}},
	{name: "inproc-links", entity: inprocIRI, pool: times(1), project: "?see ?hp ?t",
		branches: [][]string{{"?e rdfs:seeAlso ?see", "?e foaf:homepage ?hp", "?e dc:title ?t", "?e rdf:type bench:Inproceedings"}}},
	{name: "publication-kind", entity: articleIRI, pool: times(2), project: "?t ?pg",
		branches: [][]string{
			{"?e rdf:type bench:Article", "?e dc:title ?t", "?e swrc:pages ?pg"},
			{"?e rdf:type bench:Inproceedings", "?e dc:title ?t", "?e swrc:pages ?pg"}}},
	{name: "inproc-card", entity: inprocIRI, pool: times(1), project: "?t ?bt ?proc ?see ?pg ?hp ?yr",
		branches: [][]string{{"?e rdf:type bench:Inproceedings", "?e dc:title ?t", "?e bench:booktitle ?bt", "?e dcterms:partOf ?proc", "?e rdfs:seeAlso ?see", "?e swrc:pages ?pg", "?e foaf:homepage ?hp", "?e dcterms:issued ?yr"}}},
	{name: "inproc-optional", entity: inprocIRI, pool: times(1), project: "?t ?pg ?yr ?ab ?see",
		branches:  [][]string{{"?e dc:title ?t", "?e swrc:pages ?pg", "?e dcterms:issued ?yr"}},
		optionals: []string{"?e bench:abstract ?ab", "?e rdfs:seeAlso ?see"}},
	{name: "inproc-venue", entity: inprocIRI, pool: times(1), project: "?proc ?bt ?yr ?p",
		branches: [][]string{{"?e dcterms:partOf ?proc", "?e bench:booktitle ?bt", "?e dcterms:issued ?yr", "?e dc:creator ?p"}}},
	{name: "journal-card", entity: journalIRI, pool: times(1), project: "?t ?yr ?rev",
		branches:  [][]string{{"?e rdf:type bench:Journal", "?e dc:title ?t", "?e dcterms:issued ?yr"}},
		optionals: []string{"?e dcterms:revised ?rev"}},
	{name: "venue-year", entity: journalIRI, pool: times(1), project: "?yr",
		branches: [][]string{
			{"?e rdf:type bench:Journal", "?e dcterms:issued ?yr"},
			{"?e rdf:type bench:Proceedings", "?e dcterms:issued ?yr"}}},
	{name: "proceedings-card", entity: procIRI, pool: halfUnit, project: "?yr ?isbn",
		branches: [][]string{{"?e rdf:type bench:Proceedings", "?e dcterms:issued ?yr", "?e swrc:isbn ?isbn"}}},
	{name: "person-card", entity: personIRI, pool: times(2), project: "?n ?hp",
		branches:  [][]string{{"?e rdf:type foaf:Person", "?e foaf:name ?n"}},
		optionals: []string{"?e foaf:homepage ?hp"}},
}

// spelling is one way to write an intent instance.
type spelling struct {
	perms      [][]int // pattern order per branch
	branchOrd  []int   // UNION branch order
	optOrd     []int   // OPTIONAL group order
	selectOrd  []int   // order of the projected variables
	inline     bool    // entity written inline instead of FILTER(?e = c)
	filterLate bool    // FILTER after the patterns instead of after the first
	fullPrefix bool    // the long PREFIX block (two unused) instead of none
}

func randomSpelling(rng *rand.Rand, in intent) spelling {
	s := spelling{
		branchOrd:  rng.Perm(len(in.branches)),
		optOrd:     rng.Perm(len(in.optionals)),
		selectOrd:  rng.Perm(len(strings.Fields(in.project))),
		inline:     rng.Intn(2) == 0,
		filterLate: rng.Intn(2) == 0,
		fullPrefix: rng.Intn(2) == 0,
	}
	for _, b := range in.branches {
		s.perms = append(s.perms, rng.Perm(len(b)))
	}
	return s
}

// canonicalSpelling is the form the reference answer is computed from,
// by the left-deep SQL planner: declaration order, entity inline. (CDP
// refuses the inline form — its patterns share no variable — and joins
// whole relations before filtering on the FILTER form, which at a few
// milliseconds per instance would dominate set-up.)
func canonicalSpelling(in intent) spelling {
	s := spelling{inline: true, fullPrefix: true}
	for i, b := range in.branches {
		s.branchOrd = append(s.branchOrd, i)
		p := make([]int, len(b))
		for j := range p {
			p[j] = j
		}
		s.perms = append(s.perms, p)
	}
	for i := range in.optionals {
		s.optOrd = append(s.optOrd, i)
	}
	for i := range strings.Fields(in.project) {
		s.selectOrd = append(s.selectOrd, i)
	}
	return s
}

// expand rewrites prefixed names to full IRIs, for the spellings
// without a PREFIX block.
func expand(pattern string) string {
	words := strings.Fields(pattern)
	for i, w := range words {
		if pfx, local, ok := strings.Cut(w, ":"); ok && !strings.HasPrefix(w, "<") {
			if iri, known := prefixIRIs[pfx]; known {
				words[i] = "<" + iri + local + ">"
			}
		}
	}
	return strings.Join(words, " ")
}

// render writes the intent for one entity in the given spelling.
func (in intent) render(entity string, s spelling) string {
	term := func(p string) string {
		if !s.fullPrefix {
			p = expand(p)
		}
		if s.inline {
			p = strings.ReplaceAll(p, "?e", "<"+entity+">")
		}
		return p
	}
	filter := "FILTER (?e = <" + entity + ">)"
	group := func(bi int) string {
		var parts []string
		for k, pi := range s.perms[bi] {
			parts = append(parts, term(in.branches[bi][pi])+" .")
			if !s.inline && !s.filterLate && k == 0 {
				parts = append(parts, filter)
			}
		}
		for _, oi := range s.optOrd {
			parts = append(parts, "OPTIONAL { "+term(in.optionals[oi])+" }")
		}
		if !s.inline && s.filterLate {
			parts = append(parts, filter)
		}
		return strings.Join(parts, " ")
	}
	var b strings.Builder
	if s.fullPrefix {
		b.WriteString(fullPrefixes)
	}
	b.WriteString("SELECT")
	vars := strings.Fields(in.project)
	for _, vi := range s.selectOrd {
		b.WriteString(" " + vars[vi])
	}
	b.WriteString(" WHERE { ")
	if len(in.branches) == 1 {
		b.WriteString(group(0))
	} else {
		for k, bi := range s.branchOrd {
			if k > 0 {
				b.WriteString(" UNION ")
			}
			b.WriteString("{ " + group(bi) + " }")
		}
	}
	b.WriteString(" }")
	return b.String()
}

// template is one corpus entry: a spelling of instance (intent, entity).
type template struct {
	text     string
	instance int // index into corpus.instances
}

// instance is one (intent, entity) pair; all its spellings must return
// the same multiset, which is what its reference answer checks.
type instance struct {
	intent    string
	canonical string // the spelling the reference is computed from
}

type corpus struct {
	templates []template
	instances []instance
}

// cacheKey is the key the engine's plan cache files a query text under.
func cacheKey(text string) (string, error) {
	q, err := sparql.Parse(text)
	if err != nil {
		return "", err
	}
	return sparql.Parameterize(q).Text, nil
}

// buildCorpus generates the corpus deterministically from the seed and
// asserts that its templates are pairwise distinct under the real
// plan-cache key, so cycling through them can never hit the LRU. The
// seed picks the entities; the spellings' shapes come from a fixed
// sequence, so every seed's corpus has the same mix of shapes and the
// work per request does not move with the seed.
func buildCorpus(scale int, seed int64, size int) (*corpus, error) {
	rng := rand.New(rand.NewSource(seed))
	shapes := rand.New(rand.NewSource(int64(len(intents))))
	unit := max(1, scale/24)
	c := &corpus{}
	instanceOf := map[string]int{}
	seen := make(map[string]bool, size)
	entities := make([][]int, len(intents))
	for k, in := range intents {
		entities[k] = spread(rng, in.pool(unit), entitiesPerIntent)
	}
	for i := 0; i < size; i++ {
		k := i % len(intents)
		in := intents[k]
		entity := in.entity(unit, entities[k][i/len(intents)%len(entities[k])])
		placed := false
		for attempt := 0; attempt < 200 && !placed; attempt++ {
			text := in.render(entity, randomSpelling(shapes, in))
			key, err := cacheKey(text)
			if err != nil {
				return nil, fmt.Errorf("corpus: %s does not parse: %w\n%s", in.name, err, text)
			}
			if seen[key] {
				continue
			}
			seen[key] = true
			id := in.name + " " + entity
			ix, ok := instanceOf[id]
			if !ok {
				ix = len(c.instances)
				instanceOf[id] = ix
				c.instances = append(c.instances, instance{intent: in.name, canonical: in.render(entity, canonicalSpelling(in))})
			}
			c.templates = append(c.templates, template{text: text, instance: ix})
			placed = true
		}
		if !placed {
			return nil, fmt.Errorf("corpus: intent %s ran out of distinct spellings at template %d", in.name, i)
		}
	}
	return c, nil
}
