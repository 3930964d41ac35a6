//! A small fixed-capacity bitset.
//!
//! Remaining/eligible job sets are consulted every simulated timestep, so
//! they need O(1) membership and cheap iteration. The sanctioned dependency
//! list has no bitset crate, so this is a minimal `Vec<u64>`-backed one.

/// Fixed-capacity set of `u32` values in `0..capacity`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BitSet {
    words: Vec<u64>,
    capacity: usize,
}

impl BitSet {
    /// Empty set with the given capacity.
    pub fn new(capacity: usize) -> Self {
        BitSet {
            words: vec![0; capacity.div_ceil(64)],
            capacity,
        }
    }

    /// Set containing every value in `0..capacity`.
    pub fn full(capacity: usize) -> Self {
        let mut s = BitSet::new(capacity);
        for w in s.words.iter_mut() {
            *w = u64::MAX;
        }
        // Clear the tail bits beyond `capacity`.
        let tail = capacity % 64;
        if tail != 0 {
            if let Some(last) = s.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
        s
    }

    /// Maximum value + 1 this set can hold.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Insert `v`; returns `true` if it was newly inserted.
    #[inline]
    pub fn insert(&mut self, v: u32) -> bool {
        debug_assert!((v as usize) < self.capacity, "bitset value out of range");
        let (w, b) = (v as usize / 64, v as usize % 64);
        let had = self.words[w] >> b & 1 == 1;
        self.words[w] |= 1 << b;
        !had
    }

    /// Remove `v`; returns `true` if it was present.
    #[inline]
    pub fn remove(&mut self, v: u32) -> bool {
        debug_assert!((v as usize) < self.capacity, "bitset value out of range");
        let (w, b) = (v as usize / 64, v as usize % 64);
        let had = self.words[w] >> b & 1 == 1;
        self.words[w] &= !(1 << b);
        had
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, v: u32) -> bool {
        if (v as usize) >= self.capacity {
            return false;
        }
        let (w, b) = (v as usize / 64, v as usize % 64);
        self.words[w] >> b & 1 == 1
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// `true` if no element is present.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Remove all elements.
    pub fn clear(&mut self) {
        self.words.iter_mut().for_each(|w| *w = 0);
    }

    /// Insert every value in `0..capacity` (the in-place spelling of
    /// [`BitSet::full`], for reusing allocations in batch hot loops).
    pub fn fill_all(&mut self) {
        self.words.iter_mut().for_each(|w| *w = u64::MAX);
        let tail = self.capacity % 64;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }

    /// Overwrite this set with `other`'s contents without reallocating
    /// (capacities must match).
    pub fn copy_from(&mut self, other: &BitSet) {
        assert_eq!(self.capacity, other.capacity, "capacity mismatch");
        self.words.copy_from_slice(&other.words);
    }

    /// The backing `u64` words, least-significant first. Bits beyond
    /// `capacity` are always zero, so two sets of equal capacity are equal
    /// iff their word slices are — the invariant the word-keyed decision
    /// cache ([`crate::WordMap`]) relies on.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Iterate elements in increasing order.
    pub fn iter(&self) -> BitSetIter<'_> {
        BitSetIter {
            words: &self.words,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }

    /// Smallest element, if any.
    pub fn first(&self) -> Option<u32> {
        self.iter().next()
    }
}

/// Iterator over a [`BitSet`]'s elements.
pub struct BitSetIter<'a> {
    words: &'a [u64],
    word_idx: usize,
    current: u64,
}

impl Iterator for BitSetIter<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        while self.current == 0 {
            self.word_idx += 1;
            if self.word_idx >= self.words.len() {
                return None;
            }
            self.current = self.words[self.word_idx];
        }
        let bit = self.current.trailing_zeros();
        self.current &= self.current - 1;
        Some(self.word_idx as u32 * 64 + bit)
    }
}

impl<'a> IntoIterator for &'a BitSet {
    type Item = u32;
    type IntoIter = BitSetIter<'a>;

    fn into_iter(self) -> BitSetIter<'a> {
        self.iter()
    }
}

impl FromIterator<u32> for BitSet {
    /// Collect values into a set sized to the maximum value + 1.
    fn from_iter<I: IntoIterator<Item = u32>>(iter: I) -> Self {
        let values: Vec<u32> = iter.into_iter().collect();
        let cap = values.iter().map(|&v| v as usize + 1).max().unwrap_or(0);
        let mut s = BitSet::new(cap);
        for v in values {
            s.insert(v);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_contains() {
        let mut s = BitSet::new(130);
        assert!(s.insert(0));
        assert!(s.insert(129));
        assert!(!s.insert(129));
        assert!(s.contains(0) && s.contains(129) && !s.contains(64));
        assert_eq!(s.len(), 2);
        assert!(s.remove(0));
        assert!(!s.remove(0));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn full_respects_capacity() {
        let s = BitSet::full(70);
        assert_eq!(s.len(), 70);
        assert!(s.contains(69));
        assert!(!s.contains(70));
        let s0 = BitSet::full(0);
        assert!(s0.is_empty());
        let s64 = BitSet::full(64);
        assert_eq!(s64.len(), 64);
    }

    #[test]
    fn iteration_in_order() {
        let mut s = BitSet::new(200);
        for v in [5u32, 64, 65, 199, 0] {
            s.insert(v);
        }
        let got: Vec<u32> = s.iter().collect();
        assert_eq!(got, vec![0, 5, 64, 65, 199]);
        assert_eq!(s.first(), Some(0));
    }

    #[test]
    fn from_iterator() {
        let s: BitSet = [3u32, 1, 7].into_iter().collect();
        assert_eq!(s.capacity(), 8);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn clear_empties() {
        let mut s = BitSet::full(33);
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.first(), None);
    }

    #[test]
    fn fill_all_matches_full() {
        for cap in [0usize, 1, 63, 64, 65, 70, 128, 130] {
            let mut s = BitSet::new(cap);
            if cap > 0 {
                s.insert((cap / 2) as u32);
            }
            s.fill_all();
            assert_eq!(s, BitSet::full(cap), "cap {cap}");
            assert_eq!(s.words(), BitSet::full(cap).words());
        }
        // Idempotent after mutation.
        let mut s = BitSet::full(70);
        s.remove(69);
        s.fill_all();
        assert_eq!(s.len(), 70);
    }

    #[test]
    fn copy_from_reuses_without_realloc() {
        let mut dst = BitSet::new(100);
        dst.insert(7);
        let mut src = BitSet::new(100);
        src.insert(64);
        src.insert(99);
        dst.copy_from(&src);
        assert_eq!(dst, src);
        assert!(!dst.contains(7));
    }

    #[test]
    fn words_expose_tail_invariant() {
        let s = BitSet::full(70);
        assert_eq!(s.words().len(), 2);
        assert_eq!(s.words()[1], (1u64 << 6) - 1, "tail bits zeroed");
    }
}
