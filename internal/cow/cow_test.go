package cow

import (
	"math/rand"
	"slices"
	"testing"
)

// TestRandomHistoryMatchesSlice drives a writer and a plain slice through
// the same seeded history of appends, sets, grows and publishes — at slot
// widths 1 and 3, with pages small enough that every boundary case comes up
// — and checks after every publish that the new view equals the slice and,
// at the end, that every earlier view still equals the copy taken when it
// was published.
func TestRandomHistoryMatchesSlice(t *testing.T) {
	for _, width := range []int{1, 3} {
		rng := rand.New(rand.NewSource(int64(width)))
		v := New[int](2, width)
		var model []int
		type frozen struct {
			view View[int]
			want []int
		}
		var held []frozen
		for step := 0; step < 4000; step++ {
			switch op := rng.Intn(10); {
			case op < 4:
				v.Grow(v.Len() + 1)
				slot := v.Mut(v.Len() - 1)
				for j := range slot {
					slot[j] = rng.Int()
				}
				model = append(model, slot...)
			case op < 5:
				extra := rng.Intn(9)
				v.Grow(v.Len() + extra)
				model = append(model, make([]int, extra*width)...)
			case op < 8 && v.Len() > 0:
				i := rng.Intn(v.Len())
				slot := v.Mut(i)
				for j := range slot {
					slot[j] = rng.Int()
				}
				copy(model[i*width:], slot)
			default:
				s := v.Publish()
				if got := s.Flat(); !slices.Equal(got, model) {
					t.Fatalf("width %d step %d: published view differs from the model", width, step)
				}
				if s.Len()*width != len(model) {
					t.Fatalf("width %d step %d: Len %d, model has %d slots", width, step, s.Len(), len(model)/width)
				}
				held = append(held, frozen{s, slices.Clone(model)})
				if rng.Intn(4) == 0 {
					v = s.Edit() // the persistent style: a new writer per mutation
				}
			}
		}
		for k, f := range held {
			if !slices.Equal(f.view.Flat(), f.want) {
				t.Fatalf("width %d: view %d changed after it was published", width, k)
			}
			for i := 0; i < f.view.Len(); i++ {
				if f.view.At(i) != f.want[i*width] {
					t.Fatalf("width %d: view %d slot %d reads wrong", width, k, i)
				}
			}
		}
	}
}

// TestEditOfSupersededViewBranches: two writers descending from the same
// view must not see each other's appends — the second one finds the tail
// claimed and continues on its own copy — and a writer abandoned without
// publishing leaves nothing behind.
func TestEditOfSupersededViewBranches(t *testing.T) {
	w := FromSlice(2, []int{1, 2, 3, 4, 5})
	base := w.Publish()

	a := base.Edit()
	a.Append(60)
	b := base.Edit() // a holds the claim
	b.Append(70)
	b.Append(71)
	av, bv := a.Publish(), b.Publish()
	if got := av.Flat(); !slices.Equal(got, []int{1, 2, 3, 4, 5, 60}) {
		t.Errorf("first branch reads %v", got)
	}
	if got := bv.Flat(); !slices.Equal(got, []int{1, 2, 3, 4, 5, 70, 71}) {
		t.Errorf("second branch reads %v", got)
	}

	c := base.Edit() // base was superseded by av
	c.Grow(8)
	if got := c.Publish().Flat(); !slices.Equal(got, []int{1, 2, 3, 4, 5, 0, 0, 0}) {
		t.Errorf("branch off a superseded view grew into %v, want zero slots", got)
	}
	if got := base.Flat(); !slices.Equal(got, []int{1, 2, 3, 4, 5}) {
		t.Errorf("base view reads %v after three branches", got)
	}

	d := av.Edit()
	d.Append(99) // abandoned: never published
	e := av.Edit()
	e.Grow(8)
	if got := e.Publish().Flat(); !slices.Equal(got, []int{1, 2, 3, 4, 5, 60, 0, 0}) {
		t.Errorf("writer after an abandoned one reads %v", got)
	}
}

// TestPublishSharesUntouchedPages pins the cost model: a set copies one
// page, an append that fits the last page copies none, and a publish with
// no write in between shares the table itself.
func TestPublishSharesUntouchedPages(t *testing.T) {
	xs := make([]int, 4*10+1) // ten full pages and one slot of the eleventh
	v := FromSlice(2, xs)
	v.Grow(len(xs) + 1) // the eleventh page becomes a full one
	s0 := v.Publish()
	if s1 := v.Publish(); &s1.Pages()[0] != &s0.Pages()[0] {
		t.Error("publish without a write copied the page table")
	}

	v.Set(5, 7) // page 1
	v.Append(9) // fits page 10
	s2 := v.Publish()
	for p := range s0.Pages() {
		if shared := s2.SharesPage(s0, p); shared != (p != 1) {
			t.Errorf("page %d shared=%v after a set in page 1 and an append", p, shared)
		}
	}
	if s2.At(5) != 7 || s0.At(5) != 0 || s2.At(len(xs)+1) != 9 || s2.Len() != s0.Len()+1 {
		t.Error("set or append not visible exactly in the new view")
	}
}
