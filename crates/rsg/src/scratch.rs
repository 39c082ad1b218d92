//! Thread-local scratch-buffer pool for the graph kernels.
//!
//! The indexed-adjacency accessors ([`crate::graph::Rsg::succs`] and
//! friends) borrow from the graph, so the common read path allocates
//! nothing. A few kernels still need an **owned** collection — PRUNE
//! batches doomed links before removing them, MATERIALIZE snapshots a
//! summary node's neighborhood before rewriting it — and those run tens of
//! thousands of times per fixpoint. Instead of a fresh `Vec` per call they
//! check a buffer out of a small thread-local pool and return it on drop,
//! so steady-state kernel execution reuses a handful of allocations.
//!
//! Usage:
//!
//! ```
//! use psa_rsg::scratch;
//! let mut buf = scratch::node_buf(); // ScratchBuf<NodeId>, deref to Vec
//! buf.push(psa_rsg::NodeId(0));
//! // dropped here: cleared and returned to the pool
//! ```

use crate::node::NodeId;
use psa_cfront::types::SelectorId;
use std::cell::RefCell;

/// A pooled `Vec<T>`: derefs to the vector, returns it to the thread-local
/// pool when dropped. The buffer arrives empty.
pub struct ScratchBuf<T: Poolable + 'static> {
    buf: Vec<T>,
}

impl<T: Poolable> std::ops::Deref for ScratchBuf<T> {
    type Target = Vec<T>;
    fn deref(&self) -> &Vec<T> {
        &self.buf
    }
}

impl<T: Poolable> std::ops::DerefMut for ScratchBuf<T> {
    fn deref_mut(&mut self) -> &mut Vec<T> {
        &mut self.buf
    }
}

impl<T: Poolable> Drop for ScratchBuf<T> {
    fn drop(&mut self) {
        let mut buf = std::mem::take(&mut self.buf);
        buf.clear();
        T::pool().with(|pool| {
            let mut pool = pool.borrow_mut();
            if pool.len() < MAX_POOLED {
                pool.push(buf);
            }
        });
    }
}

/// Buffers kept per element type per thread; beyond this, drops free.
const MAX_POOLED: usize = 16;

/// Element types that have a thread-local buffer pool.
pub trait Poolable: Sized {
    /// The thread-local pool for `Vec<Self>` buffers.
    fn pool() -> &'static std::thread::LocalKey<RefCell<Vec<Vec<Self>>>>;
}

/// Check an empty buffer out of `T`'s pool.
pub fn buf<T: Poolable>() -> ScratchBuf<T> {
    let buf = T::pool().with(|pool| pool.borrow_mut().pop().unwrap_or_default());
    ScratchBuf { buf }
}

/// Give `$ty` a thread-local pool, and with a `$name`, a public checkout
/// function for it. The `@impl` form serves a kernel's private element
/// type, which it then checks out with [`buf`].
macro_rules! pool {
    ($(#[$doc:meta])* $name:ident, $static_name:ident, $ty:ty) => {
        pool!(@impl $static_name, $ty);
        $(#[$doc])*
        pub fn $name() -> ScratchBuf<$ty> {
            buf::<$ty>()
        }
    };
    (@impl $static_name:ident, $ty:ty) => {
        thread_local! {
            static $static_name: ::std::cell::RefCell<Vec<Vec<$ty>>> =
                const { ::std::cell::RefCell::new(Vec::new()) };
        }
        impl $crate::scratch::Poolable for $ty {
            fn pool() -> &'static ::std::thread::LocalKey<::std::cell::RefCell<Vec<Vec<$ty>>>> {
                &$static_name
            }
        }
    };
}
pub(crate) use pool;

pool!(
    /// A pooled `Vec<NodeId>`.
    node_buf,
    NODE_POOL,
    NodeId
);
pool!(
    /// A pooled `Vec<(SelectorId, NodeId)>` (out-link shape).
    out_buf,
    OUT_POOL,
    (SelectorId, NodeId)
);
pool!(
    /// A pooled `Vec<(NodeId, SelectorId)>` (in-link shape).
    in_buf,
    IN_POOL,
    (NodeId, SelectorId)
);
pool!(
    /// A pooled `Vec<(NodeId, SelectorId, NodeId)>` (full-link shape).
    link_buf,
    LINK_POOL,
    (NodeId, SelectorId, NodeId)
);
pool!(
    /// A pooled `Vec<(u32, u32)>` — `(start, len)` spans into a flat buffer
    /// (the subsumption search's per-node candidate segments), or COMPRESS's
    /// `(group, node)` partition.
    span_buf,
    SPAN_POOL,
    (u32, u32)
);
pool!(
    /// A pooled `Vec<u32>` (index orderings and slot → index tables).
    idx_buf,
    IDX_POOL,
    u32
);
pool!(
    /// A pooled `Vec<u64>` (bitset words: the subsumption search's
    /// per-node candidate rows).
    word_buf,
    WORD_POOL,
    u64
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffers_are_reused_and_arrive_empty() {
        let ptr = {
            let mut b = node_buf();
            b.push(NodeId(1));
            b.push(NodeId(2));
            b.as_ptr()
        };
        let b2 = node_buf();
        assert!(b2.is_empty(), "pooled buffer must be cleared");
        // Capacity came back from the pool (same allocation).
        assert_eq!(b2.as_ptr(), ptr);
    }

    #[test]
    fn distinct_checkouts_do_not_alias() {
        let mut a = out_buf();
        let mut b = out_buf();
        a.push((SelectorId(0), NodeId(0)));
        b.push((SelectorId(1), NodeId(1)));
        assert_eq!(a.len(), 1);
        assert_eq!(b.len(), 1);
        assert_ne!(a[0], b[0]);
    }
}
