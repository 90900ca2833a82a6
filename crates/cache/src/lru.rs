//! True-LRU recency bookkeeping over the ways of one set.
//!
//! Each set owns an order `order[0..A]` where `order[p]` is the physical way
//! currently at recency position `p` (position 0 = MRU, position `A-1` =
//! LRU). This representation makes the two quantities ESTEEM needs cheap:
//! the *LRU position of a hit* and the *LRU victim among enabled ways*
//! (scan from the tail).
//!
//! Storage comes in three flavours behind [`OrderStore`], one per way
//! range:
//!
//! * `A <= 4` (every L1 the simulator builds): a set's order is one of the
//!   24 permutations of four ways, stored as a one-byte code. Position,
//!   touch and victim are lookups in small static tables (`POS4`,
//!   `TOUCH4`, `VICTIM4`) that `const fn`s mirroring the byte-order
//!   functions below build at compile time (a test checks every entry
//!   against those functions);
//! * `A <= 16` (the L2s): the whole recency stack packs into one `u64` as
//!   a nibble array (nibble `p` = way at position `p`), so a touch is a
//!   handful of shifts and masks on a single word;
//! * wider associativities (the 32-way Table 3 variant) fall back to the
//!   byte-per-position layout the free functions below operate on.

/// Returns the recency position of `way` within `order`.
///
/// Panics if `way` is not present (set corruption).
#[inline]
pub fn position_of(order: &[u8], way: u8) -> u8 {
    for (p, &w) in order.iter().enumerate() {
        if w == way {
            return p as u8;
        }
    }
    panic!("way {way} missing from LRU order {order:?}");
}

/// Moves `way` to the MRU position, shifting the intervening entries down.
#[inline]
pub fn touch(order: &mut [u8], way: u8) {
    let p = position_of(order, way) as usize;
    // Rotate order[0..=p] right by one so order[0] == way.
    order.copy_within(0..p, 1);
    order[0] = way;
}

/// Picks the least-recently-used way among those enabled in `mask`
/// (bit `w` of `mask` set means physical way `w` is enabled).
///
/// Returns `None` when the mask enables no way (caller bug).
#[inline]
pub fn lru_victim(order: &[u8], mask: u64) -> Option<u8> {
    order
        .iter()
        .rev()
        .copied()
        .find(|&w| mask & (1u64 << w) != 0)
}

/// Canonical initial order: way `w` at position `w`.
pub fn init_order(order: &mut [u8]) {
    for (i, o) in order.iter_mut().enumerate() {
        *o = i as u8;
    }
}

/// The 24 recency orders of four ways in lexicographic order, so code 0
/// is the canonical order (way `w` at position `w`). A cache of `A < 4`
/// ways keeps ways `A..4` at positions `A..4`: touches of real ways only
/// permute the first `A` positions, and callers mask victims to real ways.
const PERM4: [[u8; 4]; CODES4] = perm4();

/// Number of recency codes of a four-way set (4!).
pub(crate) const CODES4: usize = 24;

/// `POS4[code][way]`: recency position of `way` (0 = MRU).
pub(crate) static POS4: [[u8; 4]; CODES4] = pos4();

/// `TOUCH4[code][way]`: the code after moving `way` to the MRU position.
pub(crate) static TOUCH4: [[u8; 4]; CODES4] = touch4();

/// `VICTIM4[code][mask]`: least recent way whose bit is set in the 4-bit
/// `mask`, or [`NO_WAY`] for an empty mask.
pub(crate) static VICTIM4: [[u8; 16]; CODES4] = victim4();

/// [`VICTIM4`]'s entry for an empty mask.
pub(crate) const NO_WAY: u8 = u8::MAX;

const fn perm4() -> [[u8; 4]; CODES4] {
    let mut t = [[0u8; 4]; CODES4];
    let mut n = 0;
    let mut a = 0;
    while a < 4 {
        let mut b = 0;
        while b < 4 {
            let mut c = 0;
            while c < 4 {
                if a != b && a != c && b != c {
                    t[n] = [a, b, c, 6 - a - b - c];
                    n += 1;
                }
                c += 1;
            }
            b += 1;
        }
        a += 1;
    }
    t
}

const fn code_of(order: [u8; 4]) -> u8 {
    let mut c = 0;
    while c < CODES4 {
        let p = PERM4[c];
        if p[0] == order[0] && p[1] == order[1] && p[2] == order[2] {
            return c as u8;
        }
        c += 1;
    }
    panic!("not a permutation of four ways");
}

const fn pos4() -> [[u8; 4]; CODES4] {
    let mut t = [[0u8; 4]; CODES4];
    let mut c = 0;
    while c < CODES4 {
        let mut p = 0;
        while p < 4 {
            t[c][PERM4[c][p] as usize] = p as u8;
            p += 1;
        }
        c += 1;
    }
    t
}

const fn touch4() -> [[u8; 4]; CODES4] {
    let mut t = [[0u8; 4]; CODES4];
    let mut c = 0;
    while c < CODES4 {
        let mut way = 0;
        while way < 4 {
            // `touch` on the byte order: rotate positions 0..=p right by one.
            let mut order = PERM4[c];
            let mut p = 0;
            while order[p] as usize != way {
                p += 1;
            }
            while p > 0 {
                order[p] = order[p - 1];
                p -= 1;
            }
            order[0] = way as u8;
            t[c][way] = code_of(order);
            way += 1;
        }
        c += 1;
    }
    t
}

const fn victim4() -> [[u8; 16]; CODES4] {
    let mut t = [[NO_WAY; 16]; CODES4];
    let mut c = 0;
    while c < CODES4 {
        let mut mask = 1;
        while mask < 16 {
            let mut p = 4;
            while p > 0 {
                p -= 1;
                if mask & (1 << PERM4[c][p]) != 0 {
                    t[c][mask] = PERM4[c][p];
                    break;
                }
            }
            mask += 1;
        }
        c += 1;
    }
    t
}

/// Canonical initial packed word: nibble `p` holds way `p`
/// (`0xFEDC_BA98_7654_3210`). Nibbles at positions `>= A` keep their
/// initial values `A..16`; they can never collide with a real way
/// (`< A`), and every operation below either ignores them or leaves
/// them in place, so no masking is required.
const PACKED_INIT: u64 = 0xFEDC_BA98_7654_3210;

/// Nibble-replication constants for the locate-nibble bit trick.
const NIB_ONES: u64 = 0x1111_1111_1111_1111;
const NIB_HIGH: u64 = 0x8888_8888_8888_8888;

/// Position of `way` inside a packed order word.
///
/// XORing with the way replicated into every nibble turns the matching
/// nibble into zero; the classic zero-locator `(x - 1·) & !x & 8·` then
/// flags it. The word is a permutation (each nibble value appears exactly
/// once), so the lowest flagged nibble is exact: below the unique zero
/// nibble no borrow is generated, hence no false positive below it.
#[inline]
fn packed_position_of(word: u64, way: u8) -> u8 {
    let x = word ^ (NIB_ONES * u64::from(way));
    let flags = x.wrapping_sub(NIB_ONES) & !x & NIB_HIGH;
    crate::strict_assert!(flags != 0, "way {way} missing from packed order {word:#x}");
    (flags.trailing_zeros() / 4) as u8
}

/// Moves `way` to the MRU nibble of a packed order word and returns the
/// position it held before the move (the hit path needs both and should
/// locate the way only once).
#[inline]
fn packed_touch_returning_pos(word: &mut u64, way: u8) -> u8 {
    let p = packed_position_of(*word, way);
    let shift = 4 * u32::from(p);
    // Positions 0..p slide up one nibble; positions > p stay put.
    let below = *word & ((1u64 << shift) - 1);
    let above = *word & (!0u64).checked_shl(shift + 4).unwrap_or(0);
    *word = above | (below << 4) | u64::from(way);
    p
}

/// Per-set recency storage for a whole cache: a permutation code for
/// `A <= 4`, packed nibble words for `A <= 16`, byte-per-position
/// otherwise.
#[derive(Debug, Clone)]
pub struct OrderStore {
    ways: u8,
    repr: Repr,
}

#[derive(Debug, Clone)]
enum Repr {
    /// `codes[set]`: index into `PERM4` of the set's order.
    Coded(Vec<u8>),
    /// `words[set]`: nibble `p` = way at recency position `p`.
    Packed(Vec<u64>),
    /// `bytes[set * ways + p]` = way at recency position `p`.
    Wide(Vec<u8>),
}

impl OrderStore {
    pub fn new(sets: u32, ways: u8) -> Self {
        assert!((1..=64).contains(&ways), "ways must be in 1..=64");
        let repr = if ways <= 4 {
            Repr::Coded(vec![0; sets as usize])
        } else if ways <= 16 {
            Repr::Packed(vec![PACKED_INIT; sets as usize])
        } else {
            let mut bytes = vec![0u8; sets as usize * ways as usize];
            for set in 0..sets as usize {
                init_order(&mut bytes[set * ways as usize..(set + 1) * ways as usize]);
            }
            Repr::Wide(bytes)
        };
        Self { ways, repr }
    }

    /// Recency position of `way` in `set` (0 = MRU).
    #[inline]
    pub fn position_of(&self, set: usize, way: u8) -> u8 {
        crate::strict_assert!(way < self.ways, "way {way} out of range");
        match &self.repr {
            Repr::Coded(codes) => POS4[usize::from(codes[set])][usize::from(way)],
            Repr::Packed(words) => packed_position_of(words[set], way),
            Repr::Wide(bytes) => position_of(self.wide_slice(bytes, set), way),
        }
    }

    /// Moves `way` to the MRU position of `set`.
    #[inline]
    pub fn touch(&mut self, set: usize, way: u8) {
        self.touch_returning_pos(set, way);
    }

    /// Moves `way` to the MRU position of `set` and returns the position it
    /// held *before* the move. Equivalent to `position_of` + `touch` but
    /// locates the way only once — the hit path needs both the recency
    /// position (for the stats/ATD histograms) and the promotion.
    #[inline]
    pub fn touch_returning_pos(&mut self, set: usize, way: u8) -> u8 {
        crate::strict_assert!(way < self.ways, "way {way} out of range");
        let ways = self.ways as usize;
        match &mut self.repr {
            Repr::Coded(codes) => {
                let code = usize::from(codes[set]);
                codes[set] = TOUCH4[code][usize::from(way)];
                POS4[code][usize::from(way)]
            }
            Repr::Packed(words) => packed_touch_returning_pos(&mut words[set], way),
            Repr::Wide(bytes) => {
                let order = &mut bytes[set * ways..(set + 1) * ways];
                let p = position_of(order, way);
                order.copy_within(0..p as usize, 1);
                order[0] = way;
                p
            }
        }
    }

    /// LRU way of `set` among those enabled in `mask`; `None` when the
    /// mask enables none of the set's ways.
    #[inline]
    pub fn lru_victim(&self, set: usize, mask: u64) -> Option<u8> {
        match &self.repr {
            Repr::Coded(codes) => {
                let real = mask & ((1 << self.ways) - 1);
                let w = VICTIM4[usize::from(codes[set])][real as usize];
                (w != NO_WAY).then_some(w)
            }
            Repr::Packed(words) => {
                let word = words[set];
                for p in (0..u32::from(self.ways)).rev() {
                    let w = ((word >> (4 * p)) & 0xF) as u8;
                    if mask & (1u64 << w) != 0 {
                        return Some(w);
                    }
                }
                None
            }
            Repr::Wide(bytes) => lru_victim(self.wide_slice(bytes, set), mask),
        }
    }

    /// Direct mutable view of the per-set recency codes (`None` unless the
    /// cache has at most four ways). The L1 batch kernel hoists this out
    /// of its inner loop to skip the per-access repr dispatch.
    #[inline]
    pub(crate) fn codes_mut(&mut self) -> Option<&mut [u8]> {
        match &mut self.repr {
            Repr::Coded(codes) => Some(codes),
            Repr::Packed(_) | Repr::Wide(_) => None,
        }
    }

    #[inline]
    fn wide_slice<'a>(&self, bytes: &'a [u8], set: usize) -> &'a [u8] {
        let a = self.ways as usize;
        &bytes[set * a..(set + 1) * a]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn touch_moves_to_front() {
        let mut order = [0u8, 1, 2, 3];
        touch(&mut order, 2);
        assert_eq!(order, [2, 0, 1, 3]);
        touch(&mut order, 2);
        assert_eq!(order, [2, 0, 1, 3]);
        touch(&mut order, 3);
        assert_eq!(order, [3, 2, 0, 1]);
    }

    #[test]
    fn victim_respects_mask() {
        let order = [3u8, 2, 0, 1];
        // All enabled: LRU is the tail, way 1.
        assert_eq!(lru_victim(&order, 0b1111), Some(1));
        // Way 1 disabled: next least recent is way 0.
        assert_eq!(lru_victim(&order, 0b1101), Some(0));
        // Only way 3 enabled.
        assert_eq!(lru_victim(&order, 0b1000), Some(3));
        // Nothing enabled.
        assert_eq!(lru_victim(&order, 0), None);
    }

    proptest! {
        /// After any sequence of touches the order stays a permutation, and
        /// the most recently touched way is at position 0.
        #[test]
        fn order_stays_permutation(touches in proptest::collection::vec(0u8..8, 1..200)) {
            let mut order = [0u8; 8];
            init_order(&mut order);
            for &w in &touches {
                touch(&mut order, w);
                prop_assert_eq!(order[0], w);
                let mut seen = [false; 8];
                for &x in &order {
                    prop_assert!(!seen[x as usize], "duplicate way in order");
                    seen[x as usize] = true;
                }
            }
            let last = *touches.last().unwrap();
            prop_assert_eq!(position_of(&order, last), 0);
        }

        /// The victim is always an enabled way and is less recent than every
        /// other enabled way.
        #[test]
        fn victim_is_least_recent_enabled(
            touches in proptest::collection::vec(0u8..8, 0..100),
            mask in 1u64..256,
        ) {
            let mut order = [0u8; 8];
            init_order(&mut order);
            for &w in &touches {
                touch(&mut order, w);
            }
            let v = lru_victim(&order, mask).unwrap();
            prop_assert!(mask & (1 << v) != 0);
            let vp = position_of(&order, v);
            for w in 0..8u8 {
                if mask & (1 << w) != 0 {
                    prop_assert!(position_of(&order, w) <= vp);
                }
            }
        }

        /// The coded and packed stores agree with the byte-slice reference
        /// on every operation, for every associativity they hold.
        #[test]
        fn store_matches_byte_reference(
            ways in 1u8..=16,
            touches in proptest::collection::vec((0u8..16, 1u64..65536), 1..200),
        ) {
            let mut store = OrderStore::new(2, ways);
            let mut reference = [0u8; 16];
            init_order(&mut reference[..ways as usize]);
            let refer = |r: &[u8; 16]| r[..ways as usize].to_vec();
            for &(w, mask) in &touches {
                let w = w % ways;
                // Bits of ways the cache lacks (and empty masks) must be
                // ignored by every repr, as by the reference.
                let expect_pos = position_of(&refer(&reference), w);
                prop_assert_eq!(store.touch_returning_pos(1, w), expect_pos);
                touch(&mut reference[..ways as usize], w);
                prop_assert_eq!(store.position_of(1, w), 0);
                for x in 0..ways {
                    prop_assert_eq!(
                        store.position_of(1, x),
                        position_of(&refer(&reference), x)
                    );
                }
                prop_assert_eq!(store.lru_victim(1, mask), lru_victim(&refer(&reference), mask));
                // Set 0 is untouched: still the canonical order.
                prop_assert_eq!(store.position_of(0, ways - 1), ways - 1);
            }
        }
    }

    #[test]
    fn store_uses_wide_repr_above_16_ways() {
        let mut store = OrderStore::new(4, 32);
        for w in 0..32u8 {
            assert_eq!(store.position_of(2, w), w);
        }
        assert_eq!(store.touch_returning_pos(2, 31), 31);
        assert_eq!(store.position_of(2, 31), 0);
        assert_eq!(store.position_of(2, 0), 1);
        assert_eq!(store.lru_victim(2, u64::MAX), Some(30));
        assert_eq!(store.lru_victim(2, 0xF), Some(3));
        // Other sets unaffected.
        assert_eq!(store.position_of(3, 31), 31);
    }

    #[test]
    fn packed_full_16_way_boundary() {
        let mut store = OrderStore::new(1, 16);
        // Touch the current LRU way 16 times: full rotation.
        for _ in 0..16 {
            let lru = store.lru_victim(0, u64::MAX).unwrap();
            store.touch(0, lru);
            assert_eq!(store.position_of(0, lru), 0);
        }
        // Touching 15, 14, ..., 0 front-inserts each in turn, restoring
        // the canonical order.
        assert_eq!(store.position_of(0, 0), 0);
        assert_eq!(store.position_of(0, 15), 15);
    }

    #[test]
    fn coded_victim_prefers_tail() {
        let mut store = OrderStore::new(1, 4);
        store.touch(0, 2); // order: 2 0 1 3
        assert_eq!(store.lru_victim(0, u64::MAX), Some(3));
        assert_eq!(store.lru_victim(0, 0b0100), Some(2));
        assert_eq!(store.lru_victim(0, 0b0011), Some(1));
        assert_eq!(store.lru_victim(0, 0), None);
        // A 3-way cache never names its unused fourth way.
        let mut three = OrderStore::new(1, 3);
        three.touch(0, 0);
        assert_eq!(three.lru_victim(0, u64::MAX), Some(2));
        assert_eq!(three.lru_victim(0, 0b1000), None);
    }

    /// Every entry of the four-way tables equals the byte-order reference:
    /// all 24 codes, every way, and every mask.
    #[test]
    fn tables_match_byte_order_reference() {
        let mut seen = [false; CODES4];
        for (code, order) in PERM4.iter().enumerate() {
            assert!(
                !seen[usize::from(code_of(*order))],
                "codes must be distinct"
            );
            seen[usize::from(code_of(*order))] = true;
            for way in 0..4u8 {
                assert_eq!(POS4[code][usize::from(way)], position_of(order, way));
                let mut touched = *order;
                touch(&mut touched, way);
                let next = usize::from(TOUCH4[code][usize::from(way)]);
                assert_eq!(PERM4[next], touched, "touch of way {way} from {order:?}");
            }
            for mask in 0..16u64 {
                let want = lru_victim(order, mask).unwrap_or(NO_WAY);
                assert_eq!(
                    VICTIM4[code][mask as usize], want,
                    "{order:?} mask {mask:#b}"
                );
            }
        }
        assert_eq!(seen, [true; CODES4]);
        assert_eq!(PERM4[0], [0, 1, 2, 3], "code 0 is the canonical order");
    }
}
