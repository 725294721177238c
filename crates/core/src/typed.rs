//! The typed object layer: codecs ([`TxWord`]/[`TxLayout`]) and typed
//! handles ([`TRef`]) over the word-granular transaction surface.
//!
//! The engines below this module are deliberately word-granular — the
//! paper's subject is what *word-granularity metadata* costs — but user
//! code should not be an address calculator. This module is the boundary:
//! a [`TRef<T>`] is a typed handle to a heap location, its `get`/`set`/
//! `update` go through [`TxnOps`], and the codec traits define how a value
//! maps onto consecutive 64-bit words. Above this line (`tm-structs`, the
//! examples, user code) no raw addresses appear; below it, everything is
//! still the same word heap the ownership tables track.
//!
//! # Codec layout rules
//!
//! * [`TxWord`] encodes a value into exactly **one** 64-bit word
//!   (`u64`, `i64`, `u32`, `bool`, [`TRef`], `Option<TRef<T>>`).
//! * [`TxLayout`] lays a value out over `WORDS` **consecutive** words.
//!   Every `TxWord` type is a one-word `TxLayout`; tuples concatenate
//!   their fields' layouts in order; user structs implement `TxLayout`
//!   by reading/writing each field at its cumulative word offset.
//! * Layouts are *fixed-size*: `WORDS` is a constant of the type, never of
//!   the value. Variable-size data is built from fixed-size nodes linked
//!   with `Option<TRef<_>>` pointer words (see `tm-structs`'s `TList`).
//! * The null pointer is word value `0`, so address 0 is reserved: no
//!   [`TRef`] handed out by the `Region`/`TxAlloc` allocators ever points
//!   there when it may be stored in an `Option<TRef<_>>` field. A zeroed
//!   heap therefore decodes as `None` pointers — fresh structures start
//!   empty without initialization transactions.
//!
//! # Example: a user struct laid out per field
//!
//! ```
//! use tm_stm::{Aborted, ReadOps, StmBuilder, TmEngine, TxLayout, TxWord, TxnOps};
//!
//! #[derive(Clone, Copy, Debug, PartialEq)]
//! struct Account {
//!     balance: u64,
//!     frozen: bool,
//! }
//!
//! impl TxLayout for Account {
//!     const WORDS: u64 = 2;
//!     fn read_from<O: ReadOps + ?Sized>(txn: &mut O, base: u64) -> Result<Self, Aborted> {
//!         Ok(Self {
//!             balance: u64::read_from(txn, base)?,
//!             frozen: bool::read_from(txn, base + 8)?,
//!         })
//!     }
//!     fn write_to<O: TxnOps + ?Sized>(&self, txn: &mut O, base: u64) -> Result<(), Aborted> {
//!         self.balance.write_to(txn, base)?;
//!         self.frozen.write_to(txn, base + 8)
//!     }
//! }
//!
//! let stm = StmBuilder::new().heap_words(64).table_entries(64).build_tagged();
//! let mut region = tm_stm::Region::new(0, 64 * 8);
//! let acct = region.alloc_ref::<Account>();
//! stm.run(0, |txn| acct.set(txn, Account { balance: 100, frozen: false }));
//! // Decoding only needs the read surface, so reads can use the
//! // table-free snapshot path.
//! let a = stm.run_read(0, |txn| acct.get(txn));
//! assert_eq!(a, Account { balance: 100, frozen: false });
//! ```

use std::marker::PhantomData;

use crate::engine::{ReadOps, TxnOps};
use crate::heap::{Heap, WORD_BYTES};
use crate::stm::Aborted;

/// A value encodable into exactly one 64-bit heap word.
///
/// Implementations must round-trip: `from_word(v.to_word()) == v` for every
/// representable `v`. Decoding is total over the words the type itself
/// encodes, but need not be over arbitrary words (decoding a word another
/// type wrote is a logic error, as with any transmute-free cast).
pub trait TxWord: Sized {
    /// Encode into a word.
    fn to_word(&self) -> u64;
    /// Decode from a word.
    fn from_word(word: u64) -> Self;
}

impl TxWord for u64 {
    fn to_word(&self) -> u64 {
        *self
    }
    fn from_word(word: u64) -> Self {
        word
    }
}

impl TxWord for i64 {
    fn to_word(&self) -> u64 {
        *self as u64
    }
    fn from_word(word: u64) -> Self {
        word as i64
    }
}

impl TxWord for u32 {
    fn to_word(&self) -> u64 {
        u64::from(*self)
    }
    fn from_word(word: u64) -> Self {
        word as u32
    }
}

impl TxWord for bool {
    fn to_word(&self) -> u64 {
        u64::from(*self)
    }
    fn from_word(word: u64) -> Self {
        word != 0
    }
}

/// A pointer word: the referent's base address (never 0 — see the module
/// docs' null rule).
impl<T> TxWord for TRef<T> {
    fn to_word(&self) -> u64 {
        debug_assert_ne!(self.addr, 0, "address 0 is reserved for null");
        self.addr
    }
    fn from_word(word: u64) -> Self {
        debug_assert_ne!(word, 0, "decoded a null pointer into a bare TRef");
        TRef::from_raw(word)
    }
}

/// A nullable pointer word: `None` is word 0, `Some(r)` is `r`'s address.
/// Because fresh heap words are 0, an uninitialized pointer field reads as
/// `None`.
impl<T> TxWord for Option<TRef<T>> {
    fn to_word(&self) -> u64 {
        match self {
            None => 0,
            Some(r) => r.to_word(),
        }
    }
    fn from_word(word: u64) -> Self {
        if word == 0 {
            None
        } else {
            Some(TRef::from_raw(word))
        }
    }
}

/// A value laid out over [`WORDS`](TxLayout::WORDS) consecutive heap words.
///
/// Every [`TxWord`] type is a one-word layout via the blanket impl; tuples
/// concatenate their fields in declaration order; user structs implement
/// the trait per field (see the module example). All reads/writes go
/// through [`TxnOps`], so multi-word values are read and written atomically
/// within the enclosing transaction — there are no torn typed values.
pub trait TxLayout: Sized {
    /// Consecutive words this type occupies. Must be ≥ 1.
    const WORDS: u64;

    /// Read a value rooted at byte address `base` inside a transaction.
    /// Decoding needs only the read surface, so it composes into read-only
    /// transactions ([`TmEngine::run_read`](crate::TmEngine::run_read)) as
    /// well as read-write ones.
    fn read_from<O: ReadOps + ?Sized>(txn: &mut O, base: u64) -> Result<Self, Aborted>;

    /// Write the value rooted at byte address `base` inside a transaction.
    fn write_to<O: TxnOps + ?Sized>(&self, txn: &mut O, base: u64) -> Result<(), Aborted>;
}

impl<W: TxWord> TxLayout for W {
    const WORDS: u64 = 1;

    fn read_from<O: ReadOps + ?Sized>(txn: &mut O, base: u64) -> Result<Self, Aborted> {
        Ok(W::from_word(txn.read(base)?))
    }

    fn write_to<O: TxnOps + ?Sized>(&self, txn: &mut O, base: u64) -> Result<(), Aborted> {
        txn.write(base, self.to_word())
    }
}

macro_rules! tuple_layout {
    ($($name:ident)+) => {
        impl<$($name: TxLayout),+> TxLayout for ($($name,)+) {
            const WORDS: u64 = 0 $(+ $name::WORDS)+;

            #[allow(unused_assignments)] // the final field's offset bump is dead
            fn read_from<O: ReadOps + ?Sized>(txn: &mut O, base: u64) -> Result<Self, Aborted> {
                let mut offset = 0u64;
                Ok(($(
                    {
                        let v = $name::read_from(txn, base + offset * WORD_BYTES)?;
                        offset += $name::WORDS;
                        v
                    },
                )+))
            }

            #[allow(unused_assignments)] // the final field's offset bump is dead
            fn write_to<O: TxnOps + ?Sized>(&self, txn: &mut O, base: u64) -> Result<(), Aborted> {
                #[allow(non_snake_case)]
                let ($($name,)+) = self;
                let mut offset = 0u64;
                $(
                    $name.write_to(txn, base + offset * WORD_BYTES)?;
                    offset += <$name as TxLayout>::WORDS;
                )+
                Ok(())
            }
        }
    };
}

tuple_layout!(A B);
tuple_layout!(A B C);
tuple_layout!(A B C D);

/// A typed handle to a `T` laid out in the STM heap.
///
/// `TRef` is `Copy` regardless of `T` (it is an address, not a value) and
/// all access goes through a transaction: [`get`](TRef::get)/
/// [`set`](TRef::set)/[`update`](TRef::update) compose into any
/// [`TxnOps`] body on any [`TmEngine`](crate::TmEngine); a read alone is
/// `stm.run_read(me, |txn| r.get(txn))`. Construction happens through the
/// allocators ([`Region`](crate::Region) for static layout,
/// [`TxAlloc`](crate::TxAlloc) for transactional alloc/free) — user code
/// never computes addresses.
pub struct TRef<T> {
    addr: u64,
    _marker: PhantomData<fn() -> T>,
}

impl<T> Clone for TRef<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for TRef<T> {}

impl<T> PartialEq for TRef<T> {
    fn eq(&self, other: &Self) -> bool {
        self.addr == other.addr
    }
}
impl<T> Eq for TRef<T> {}

impl<T> std::hash::Hash for TRef<T> {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.addr.hash(state);
    }
}

impl<T> std::fmt::Debug for TRef<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "TRef<{}>({:#x})", std::any::type_name::<T>(), self.addr)
    }
}

impl<T> TRef<T> {
    /// Wrap a raw word-aligned byte address. Low-level escape hatch for
    /// allocator implementations and layout code (e.g. a structure
    /// addressing a field inside a node it allocated); everything above
    /// the allocators receives its `TRef`s ready-made.
    pub fn from_raw(addr: u64) -> Self {
        debug_assert!(
            addr.is_multiple_of(WORD_BYTES),
            "TRef address {addr:#x} must be word-aligned"
        );
        Self {
            addr,
            _marker: PhantomData,
        }
    }

    /// The underlying byte address (diagnostics and heap-level tooling).
    pub fn addr(&self) -> u64 {
        self.addr
    }
}

impl<T: TxLayout> TRef<T> {
    /// Read the value inside a transaction. Bounded by [`ReadOps`], so it
    /// composes into both read-write bodies and read-only
    /// ([`TmEngine::run_read`](crate::TmEngine::run_read)) bodies.
    pub fn get<O: ReadOps + ?Sized>(&self, txn: &mut O) -> Result<T, Aborted> {
        T::read_from(txn, self.addr)
    }

    /// Write the value inside a transaction.
    pub fn set<O: TxnOps + ?Sized>(&self, txn: &mut O, value: T) -> Result<(), Aborted> {
        value.write_to(txn, self.addr)
    }

    /// Read-modify-write inside a transaction; returns the new value.
    pub fn update<O, F>(&self, txn: &mut O, f: F) -> Result<T, Aborted>
    where
        O: TxnOps + ?Sized,
        F: FnOnce(T) -> T,
        T: Clone,
    {
        let v = f(self.get(txn)?);
        self.set(txn, v.clone())?;
        Ok(v)
    }

    /// Non-transactional read straight from the heap. Only meaningful while
    /// no transactions run (initialization, post-run inspection) — exactly
    /// the situations [`Heap::load`] itself is for.
    pub fn peek(&self, heap: &Heap) -> T {
        T::read_from(&mut DirectHeap(heap), self.addr).expect("direct heap access cannot abort")
    }

    /// Non-transactional write straight to the heap (initialization before
    /// concurrent execution begins). See [`peek`](TRef::peek).
    pub fn poke(&self, heap: &Heap, value: T) {
        value
            .write_to(&mut DirectHeap(heap), self.addr)
            .expect("direct heap access cannot abort");
    }
}

/// The quiesced-access adapter behind [`TRef::peek`]/[`TRef::poke`]: runs
/// codecs against the bare heap with no transaction (and hence no
/// meaningful per-attempt counters).
struct DirectHeap<'h>(&'h Heap);

impl ReadOps for DirectHeap<'_> {
    fn read(&mut self, addr: u64) -> Result<u64, Aborted> {
        Ok(self.0.load(addr))
    }
    fn read_count(&self) -> u64 {
        0
    }
}

impl TxnOps for DirectHeap<'_> {
    fn write(&mut self, addr: u64, value: u64) -> Result<(), Aborted> {
        self.0.store(addr, value);
        Ok(())
    }
    fn write_count(&self) -> u64 {
        0
    }
}

/// A capacity-shaped failure: the structure (or allocator pool) is full.
///
/// This is the **inner** error of the workspace's transactional-outcome
/// idiom `Result<Result<T, CapacityError>, Aborted>`: the outer layer is
/// STM control flow (`Err(Aborted)` aborts and retries the transaction),
/// the inner layer is the operation's own answer (`Err(CapacityError)`
/// commits — observing fullness is a real, serializable observation, not a
/// conflict). See [`TxResult`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CapacityError;

impl std::fmt::Display for CapacityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("transactional structure is at capacity")
    }
}

impl std::error::Error for CapacityError {}

/// The outcome of a transactional operation that can also fail for
/// capacity: `Ok(Ok(v))` succeeded, `Ok(Err(CapacityError))` committed but
/// the structure was full, `Err(Aborted)` must propagate so the engine
/// retries. Inside a transaction body, `?` peels the outer layer:
///
/// ```ignore
/// match queue.enqueue(txn, job)? {          // Result<(), CapacityError>
///     Ok(()) => { /* enqueued */ }
///     Err(CapacityError) => { /* full — committed observation */ }
/// }
/// ```
pub type TxResult<T> = Result<Result<T, CapacityError>, Aborted>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{StmBuilder, TmEngine};
    use crate::Region;

    #[test]
    fn word_codecs_round_trip() {
        assert_eq!(u64::from_word(7u64.to_word()), 7);
        assert_eq!(i64::from_word((-3i64).to_word()), -3);
        assert_eq!(u32::from_word(9u32.to_word()), 9);
        assert!(bool::from_word(true.to_word()));
        assert!(!bool::from_word(false.to_word()));
        let r: TRef<u64> = TRef::from_raw(64);
        assert_eq!(Option::<TRef<u64>>::from_word(Some(r).to_word()), Some(r));
        assert_eq!(
            Option::<TRef<u64>>::from_word(None::<TRef<u64>>.to_word()),
            None
        );
    }

    #[test]
    fn tuple_layout_concatenates_fields() {
        assert_eq!(<(u64, bool)>::WORDS, 2);
        assert_eq!(<(u64, (u64, u64), bool)>::WORDS, 4);
        let stm = StmBuilder::new()
            .heap_words(64)
            .table_entries(64)
            .build_tagged();
        let mut region = Region::new(0, 64 * 8);
        let cell = region.alloc_ref::<(u64, i64, bool)>();
        stm.run(0, |txn| cell.set(txn, (5, -5, true)));
        assert_eq!(stm.run(0, |txn| cell.get(txn)), (5, -5, true));
        // Fields land in consecutive words, in order.
        assert_eq!(stm.heap().load(cell.addr()), 5);
        assert_eq!(stm.heap().load(cell.addr() + 8) as i64, -5);
        assert_eq!(stm.heap().load(cell.addr() + 16), 1);
    }

    #[test]
    fn tref_get_set_update_compose() {
        let stm = StmBuilder::new()
            .heap_words(64)
            .table_entries(64)
            .build_lazy();
        let mut region = Region::new(0, 64 * 8);
        let a = region.alloc_ref::<u64>();
        let b = region.alloc_ref::<i64>();
        stm.run(0, |txn| {
            a.set(txn, 10)?;
            b.set(txn, -1)?;
            a.update(txn, |v| v * 2)
        });
        assert_eq!(stm.run(0, |txn| a.get(txn)), 20);
        assert_eq!(stm.run(0, |txn| b.get(txn)), -1);
    }

    #[test]
    fn zeroed_heap_decodes_null_pointers() {
        let stm = StmBuilder::new()
            .heap_words(64)
            .table_entries(64)
            .build_tagged();
        let mut region = Region::new(0, 64 * 8);
        let p = region.alloc_ref::<Option<TRef<u64>>>();
        assert_eq!(stm.run(0, |txn| p.get(txn)), None);
    }

    #[test]
    fn peek_poke_bypass_transactions() {
        let stm = StmBuilder::new()
            .heap_words(64)
            .table_entries(64)
            .build_tagged();
        let mut region = Region::new(0, 64 * 8);
        let cell = region.alloc_ref::<(u64, bool)>();
        cell.poke(stm.heap(), (41, true));
        assert_eq!(cell.peek(stm.heap()), (41, true));
        assert_eq!(stm.engine_stats().commits, 0, "no transactions ran");
    }
}
