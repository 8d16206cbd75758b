// Package cow implements a single-writer, paged, copy-on-write vector: the
// one publication mechanism behind the packed corpus (core.PackedCorpus),
// the online graph (knn.Online) and the service's user table and
// tombstones.
//
// A vector of n slots lives in fixed power-of-two pages behind a page
// table. A writer (Vec) may write a slot in place when no published View
// can see it — the slot was appended since the last publish, or its page
// was already copied since then; the first write to a published slot copies
// its page (at most once between two publishes) and the page table. Publish
// hands out the table as an immutable View. Publication therefore costs
// O(pages touched) plus, when a published slot changed or a page was added,
// one table copy of n/pageLen entries — never O(n) elements; an append that
// fits the last page copies nothing at all; and a View stays byte-identical
// however many mutations follow it.
//
// A slot is width consecutive elements (a packed-corpus row is stride
// words); plain vectors use width 1 and the At/Set/Append shorthands.
package cow

// View is an immutable published state of a Vec, safe for concurrent use.
// The zero value is an empty, uneditable vector; real ones come from
// Vec.Publish.
type View[T any] struct {
	pages [][]T
	n     int
	shift uint // log2(slots per page)
	width int  // elements per slot
	// head is shared by every view and writer of one lineage. The newest
	// view of a lineage has *head == n: the slots past n in its last page
	// are zero and free for the lineage's next writer to fill in place,
	// like the spare capacity of a slice. A writer holds the claim (-1)
	// until it publishes; a view that finds neither its own n nor a free
	// claim there has been superseded, and a writer editing it branches
	// off instead of appending in place.
	head *int
}

// Len returns the number of slots.
func (s View[T]) Len() int { return s.n }

// At returns the first element of slot i — the element itself at width 1.
func (s View[T]) At(i int) T {
	return s.pages[i>>s.shift][(i&(1<<s.shift-1))*s.width]
}

// Pages returns the page table: page p holds the elements of slots
// [p<<shift, (p+1)<<shift), slot after slot. Every page but the last holds
// a full page of slots; the last holds at least the slots below Len, and
// what lies past them is not the view's to read. Callers must not write
// through it.
func (s View[T]) Pages() [][]T { return s.pages }

// SharesPage reports whether page p of s and of o is the same memory — the
// O(1) proof that no slot of the page differs between two views of one
// lineage.
func (s View[T]) SharesPage(o View[T], p int) bool {
	return p < len(s.pages) && p < len(o.pages) &&
		len(s.pages[p]) > 0 && len(o.pages[p]) > 0 && &s.pages[p][0] == &o.pages[p][0]
}

// Flat returns a copy of every element of every slot, in order.
func (s View[T]) Flat() []T {
	out := make([]T, 0, s.n*s.width)
	for _, pg := range s.pages {
		out = append(out, pg[:min(len(pg), cap(out)-len(out))]...)
	}
	return out
}

// Edit returns a writer that continues from s, sharing every page with it
// until written. At most one writer may be active per lineage: either keep
// writing through the Vec that published s, or Edit the newest view — not
// both. Editing a superseded view is safe and branches off a new lineage.
func (s View[T]) Edit() *Vec[T] {
	v := &Vec[T]{View: s, base: s.n, frozen: true}
	if s.head != nil && *s.head == s.n {
		*s.head = -1
		return v
	}
	// The slots past n in the last page may hold a successor's appends:
	// continue on a zero-tailed private copy of the slots s can see.
	v.head = new(int)
	*v.head = -1
	if last := len(s.pages) - 1; last >= 0 && s.n < len(s.pages)<<s.shift {
		v.replacePage(last, (s.n-last<<s.shift)*s.width)
	}
	return v
}

// Vec is the single writer of a paged vector. It is not safe for concurrent
// use, with one exception: Mut on slots no published view can see (all of
// them on a Vec from New) only reads the writer's state, so disjoint slots
// of a freshly grown vector may be filled concurrently.
type Vec[T any] struct {
	View[T]
	base   int    // slots below base may be visible to published views
	owned  []bool // owned[p]: page p was copied since the last Publish; nil until one is
	frozen bool   // the page table itself is shared with a published View
}

// New returns an empty writer with 1<<shift slots per page and width
// elements per slot.
func New[T any](shift uint, width int) *Vec[T] {
	head := -1
	return &Vec[T]{View: View[T]{shift: shift, width: width, head: &head}}
}

// FromSlice returns a writer holding a copy of xs, one element per slot.
func FromSlice[T any](shift uint, xs []T) *Vec[T] {
	v := New[T](shift, 1)
	v.Grow(len(xs))
	for p, pg := range v.pages {
		copy(pg, xs[p<<shift:])
	}
	return v
}

// thaw makes the page table private to the writer.
func (v *Vec[T]) thaw() {
	if v.frozen {
		v.pages = append(make([][]T, 0, len(v.pages)+1), v.pages...)
		v.frozen = false
	}
}

// replacePage swaps page p for a private full-size copy of its first keep
// elements, zero past them.
func (v *Vec[T]) replacePage(p, keep int) {
	v.thaw()
	full := make([]T, max(len(v.pages[p]), v.width<<v.shift))
	copy(full, v.pages[p][:keep])
	v.pages[p] = full
	if len(v.owned) <= p {
		v.owned = append(v.owned, make([]bool, len(v.pages)-len(v.owned))...)
	}
	v.owned[p] = true
}

// Grow extends the vector to n zero slots; it never shrinks. Slots that fit
// the last page cost nothing. A vector grown once to its final size ends in
// an exact-size page (a gathered ten-row corpus must not pay for a 256-row
// page), reallocated as a full page the first time the vector grows again.
func (v *Vec[T]) Grow(n int) {
	if n <= v.n {
		return
	}
	if last := len(v.pages) - 1; last >= 0 && len(v.pages[last]) < v.width<<v.shift {
		v.replacePage(last, len(v.pages[last]))
	}
	for len(v.pages)<<v.shift < n {
		v.thaw()
		slots := min(1<<v.shift, n-len(v.pages)<<v.shift)
		v.pages = append(v.pages, make([]T, slots*v.width))
	}
	v.n = n
}

// Mut returns slot i for writing, first copying its page if a published
// View can see the slot.
func (v *Vec[T]) Mut(i int) []T {
	p := i >> v.shift
	if i < v.base && (p >= len(v.owned) || !v.owned[p]) {
		v.replacePage(p, len(v.pages[p]))
	}
	off := (i & (1<<v.shift - 1)) * v.width
	return v.pages[p][off : off+v.width : off+v.width]
}

// Set stores x as the first element of slot i.
func (v *Vec[T]) Set(i int, x T) { v.Mut(i)[0] = x }

// Append adds one slot whose first element is x.
func (v *Vec[T]) Append(x T) {
	v.Grow(v.n + 1)
	v.Mut(v.n - 1)[0] = x
}

// Publish returns the current contents as an immutable View. The writer
// stays usable: its next write to a slot the view can see copies that
// slot's page.
func (v *Vec[T]) Publish() View[T] {
	v.base, v.owned, v.frozen = v.n, nil, true
	*v.head = v.n
	s := v.View
	s.pages = s.pages[:len(s.pages):len(s.pages)]
	return s
}
