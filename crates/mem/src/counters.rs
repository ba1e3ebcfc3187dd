//! Typed event counters of the L1 and directory controllers.
//!
//! Each struct is plain `u64` fields bumped on the hot path; the
//! `counters!` table beside the fields is the only place a published
//! counter name appears. The names are the `<k>` in the stats keys
//! `mem.l1.t{N}.<k>`, `mem.dir.t{N}.<k>` and `mem.total.<k>`, and the
//! energy model reads the access totals from the same fields.

use glocks_sim_base::snap::{SnapError, SnapReader, SnapWriter};

macro_rules! counters {
    ($(#[$meta:meta])* $ty:ident { $($field:ident => $key:literal,)* }) => {
        $(#[$meta])*
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct $ty {
            $(pub $field: u64,)*
        }

        impl $ty {
            /// Published names, in field order.
            pub const NAMES: [&'static str; [$($key),*].len()] = [$($key),*];

            /// `(name, value)` pairs in field order.
            pub fn named(&self) -> impl Iterator<Item = (&'static str, u64)> {
                Self::NAMES.into_iter().zip([$(self.$field),*])
            }

            /// Field-wise sum (chip-wide totals).
            pub fn merge(&mut self, other: &Self) {
                $(self.$field += other.$field;)*
            }

            /// Snapshot as a fixed-length array in field order.
            pub fn save_state(&self, w: &mut SnapWriter) {
                w.u64_slice(&[$(self.$field),*]);
            }

            pub fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
                let [$($field),*]: [u64; Self::NAMES.len()] = r
                    .u64_vec()?
                    .try_into()
                    .map_err(|_| SnapError::Corrupt { what: stringify!($ty) })?;
                *self = $ty { $($field),* };
                Ok(())
            }
        }
    };
}

counters! {
    /// Events of one L1 data cache.
    L1Counters {
        access => "l1_access",
        hit => "l1_hit",
        upgrade => "l1_upgrade",
        miss => "l1_miss",
        fill => "l1_fill",
        wb_dirty => "l1_wb_dirty",
        wb_clean => "l1_wb_clean",
        evict_shared => "l1_evict_shared",
        inv_recv => "l1_inv_recv",
        fwd_recv => "l1_fwd_recv",
    }
}

counters! {
    /// Events of one home tile's directory and L2 slice.
    DirCounters {
        l2_access => "l2_access",
        l2_hit => "l2_hit",
        l2_miss => "l2_miss",
        mem_access => "mem_access",
        txn => "dir_txn",
        c2c => "dir_c2c",
        inv_sent => "dir_inv_sent",
        upgrade_degraded => "dir_upgrade_degraded",
        crossed_put => "dir_crossed_put",
        stale_put => "dir_stale_put",
        stale_wbdata => "dir_stale_wbdata",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_follow_field_order_and_are_unique() {
        let c = L1Counters { access: 1, fwd_recv: 10, ..Default::default() };
        let named: Vec<_> = c.named().collect();
        assert_eq!(named.first(), Some(&("l1_access", 1)));
        assert_eq!(named.last(), Some(&("l1_fwd_recv", 10)));
        let mut all: Vec<_> = L1Counters::NAMES.iter().chain(&DirCounters::NAMES).collect();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), L1Counters::NAMES.len() + DirCounters::NAMES.len());
    }

    #[test]
    fn merge_sums_fields() {
        let mut a = DirCounters { txn: 2, inv_sent: 3, ..Default::default() };
        a.merge(&DirCounters { txn: 5, stale_wbdata: 1, ..Default::default() });
        assert_eq!((a.txn, a.inv_sent, a.stale_wbdata), (7, 3, 1));
    }

    #[test]
    fn snapshot_round_trips_and_checks_length() {
        let c = DirCounters { l2_access: 9, c2c: 4, stale_put: 1, ..Default::default() };
        let mut w = SnapWriter::new();
        c.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut back = DirCounters::default();
        back.load_state(&mut SnapReader::new(&bytes)).unwrap();
        assert_eq!(back, c);

        let mut w = SnapWriter::new();
        w.u64_slice(&[1, 2, 3]);
        let bytes = w.into_bytes();
        let err = L1Counters::default().load_state(&mut SnapReader::new(&bytes)).unwrap_err();
        assert_eq!(err, SnapError::Corrupt { what: "L1Counters" });
    }
}
