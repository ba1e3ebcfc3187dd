//! Fixed-capacity index sets, one bit per index in `u64` words.
//!
//! The simulator uses them as *active sets*: the routers, delivery queues,
//! controllers and cores that have work this cycle. Members are visited in
//! ascending index order, so a sweep over a set touches components in the
//! same order as a sweep over every index.
//!
//! [`TileSet`] is owned and mutated through `&mut`. [`WakeSet`] keeps its
//! words in `Cell`s so that devices sharing it through an `Rc` can mark
//! members from behind a shared reference: a register write marks the
//! local controller it wakes, a grant marks the core it releases.

use std::cell::Cell;

/// A set of indices in `0..capacity`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TileSet {
    words: Vec<u64>,
}

impl TileSet {
    /// An empty set that can hold indices `0..capacity`.
    pub fn new(capacity: usize) -> Self {
        TileSet { words: vec![0; capacity.div_ceil(64)] }
    }

    #[inline]
    pub fn insert(&mut self, i: usize) {
        self.words[i / 64] |= 1 << (i % 64);
    }

    #[inline]
    pub fn remove(&mut self, i: usize) {
        self.words[i / 64] &= !(1 << (i % 64));
    }

    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Number of `u64` words backing the set.
    #[inline]
    pub fn n_words(&self) -> usize {
        self.words.len()
    }

    /// The `w`-th word: members `64 * w ..= 64 * w + 63`.
    #[inline]
    pub fn word(&self, w: usize) -> u64 {
        self.words[w]
    }

    /// All members, ascending.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.words.len()).flat_map(|w| bits(w, self.words[w]))
    }
}

/// A set of indices in `0..capacity` that can be marked through `&self`.
#[derive(Debug)]
pub struct WakeSet {
    capacity: usize,
    words: Vec<Cell<u64>>,
}

impl WakeSet {
    /// An empty set that can hold indices `0..capacity`.
    pub fn new(capacity: usize) -> Self {
        WakeSet {
            capacity,
            words: (0..capacity.div_ceil(64)).map(|_| Cell::new(0)).collect(),
        }
    }

    #[inline]
    pub fn insert(&self, i: usize) {
        let w = &self.words[i / 64];
        w.set(w.get() | 1 << (i % 64));
    }

    #[inline]
    pub fn remove(&self, i: usize) {
        let w = &self.words[i / 64];
        w.set(w.get() & !(1 << (i % 64)));
    }

    /// Mark every index in `0..capacity`.
    pub fn insert_all(&self) {
        for (w, word) in self.words.iter().enumerate() {
            let left = self.capacity - 64 * w;
            word.set(if left >= 64 { u64::MAX } else { (1 << left) - 1 });
        }
    }

    /// Number of `u64` words backing the set.
    #[inline]
    pub fn n_words(&self) -> usize {
        self.words.len()
    }

    /// The `w`-th word: members `64 * w ..= 64 * w + 63`.
    #[inline]
    pub fn word(&self, w: usize) -> u64 {
        self.words[w].get()
    }

    /// Empty word `w` and return what it held.
    #[inline]
    pub fn take_word(&self, w: usize) -> u64 {
        self.words[w].replace(0)
    }

    /// All members, ascending.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.words.len()).flat_map(|w| bits(w, self.word(w)))
    }
}

/// Members held in a copy of word `w` of a [`TileSet`] or [`WakeSet`],
/// ascending.
///
/// Sweeps that mutate the set's owner while visiting members iterate
/// `for w in 0..set.n_words() { for i in bits(w, set.word(w)) { .. } }`:
/// each word is copied before its members are visited, so the loop body
/// may insert into or remove from the set.
#[inline]
pub fn bits(w: usize, mut word: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        if word == 0 {
            return None;
        }
        let i = word.trailing_zeros() as usize;
        word &= word - 1;
        Some(w * 64 + i)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn members_iterate_ascending_across_words() {
        let mut s = TileSet::new(130);
        assert_eq!(s.n_words(), 3);
        for i in [129, 0, 64, 63, 7] {
            s.insert(i);
        }
        assert_eq!(s.iter().collect::<Vec<_>>(), [0, 7, 63, 64, 129]);
        s.remove(64);
        s.remove(65); // absent: no-op
        assert_eq!(s.iter().collect::<Vec<_>>(), [0, 7, 63, 129]);
        s.clear();
        assert!(s.is_empty());
    }

    #[test]
    fn word_copies_survive_mutation() {
        let mut s = TileSet::new(64);
        s.insert(3);
        s.insert(9);
        let mut seen = Vec::new();
        for i in bits(0, s.word(0)) {
            s.remove(i);
            s.insert(i + 1);
            seen.push(i);
        }
        assert_eq!(seen, [3, 9]);
        assert_eq!(s.iter().collect::<Vec<_>>(), [4, 10]);
    }

    #[test]
    fn wake_set_marks_through_a_shared_reference() {
        let s = std::rc::Rc::new(WakeSet::new(70));
        let dev = std::rc::Rc::clone(&s);
        dev.insert(69);
        dev.insert(2);
        assert_eq!(s.iter().collect::<Vec<_>>(), [2, 69]);
        assert_eq!(s.take_word(0), 1 << 2);
        assert_eq!(s.iter().collect::<Vec<_>>(), [69]);
        s.remove(69);
        assert_eq!(s.iter().next(), None);
        s.insert_all();
        assert_eq!(s.iter().count(), 70, "insert_all stops at the capacity");
        assert_eq!(s.iter().last(), Some(69));
    }
}
