package nlu_test

import (
	"reflect"
	"testing"

	"cachemind/internal/bench"
	"cachemind/internal/nlu"
	"cachemind/internal/testfix"
)

// TestParaphraseParsesLikeOriginal is the parser's metamorphic
// property over the benchmark's own rewordings: every bench.Paraphrase
// variant (lower case, upper case, swapped terminal punctuation, a
// "Please" prefix) of every question in bench suites 42–91 parses to
// exactly the original's nlu.Parsed, failing exactly when the original
// fails. The upper-case variant is the one that broke hex extraction:
// "0X409270" is the same PC as "0x409270".
func TestParaphraseParsesLikeOriginal(t *testing.T) {
	store := testfix.Store()
	vocab := nlu.Vocabulary{Workloads: store.Workloads(), Policies: store.Policies()}
	seen := map[string]bool{}
	for seed := int64(42); seed <= 91; seed++ {
		suite, err := bench.Generate(store, seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range suite.Questions {
			if seen[q.Text] {
				continue
			}
			seen[q.Text] = true
			want, wantErr := nlu.Parse(q.Text, vocab)
			for v := 0; v < bench.ParaphraseVariants; v++ {
				para := bench.Paraphrase(q.Text, v)
				got, gotErr := nlu.Parse(para, vocab)
				if (gotErr != nil) != (wantErr != nil) {
					t.Errorf("variant %d %q: error %v, original %q: error %v", v, para, gotErr, q.Text, wantErr)
					continue
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("variant %d %q parses to %+v, original %q to %+v", v, para, got, q.Text, want)
				}
			}
		}
	}
	t.Logf("%d distinct questions, %d variants each", len(seen), bench.ParaphraseVariants)
}
