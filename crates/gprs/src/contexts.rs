//! A table keyed by PDP context, `(IMSI, NSAPI)`.
//!
//! Every registered subscriber keeps one always-on context under the same
//! NSAPI, the signalling one (paper step 1.3), for as long as it stays;
//! the others come and go with calls. So the rows of one declared NSAPI
//! are a [`NumberBlock`] by IMSI, dense for the home population, and
//! every other context is hashed.

use vgprs_sim::{IdMap, NumberBlock};
use vgprs_wire::{Imsi, Nsapi};

#[derive(Debug)]
pub(crate) struct Contexts<V> {
    /// The NSAPI whose rows are `by_imsi`'s, once declared.
    nsapi: Option<Nsapi>,
    by_imsi: NumberBlock<Imsi, V>,
    rest: IdMap<(Imsi, Nsapi), V>,
}

impl<V> Default for Contexts<V> {
    fn default() -> Self {
        Contexts {
            nsapi: None,
            by_imsi: NumberBlock::default(),
            rest: IdMap::default(),
        }
    }
}

impl<V> Contexts<V> {
    /// Gives the `nsapi` context of the `count` IMSIs from `first` a
    /// dense row each. Declare before the first insert.
    pub(crate) fn declare(&mut self, nsapi: Nsapi, first: Imsi, count: usize) {
        assert!(self.rest.is_empty(), "declare before the first insert");
        self.nsapi = Some(nsapi);
        self.by_imsi.declare(first, count);
    }

    pub(crate) fn len(&self) -> usize {
        self.by_imsi.len() + self.rest.len()
    }

    pub(crate) fn get(&self, &(imsi, nsapi): &(Imsi, Nsapi)) -> Option<&V> {
        if Some(nsapi) == self.nsapi {
            self.by_imsi.get(&imsi)
        } else {
            self.rest.get(&(imsi, nsapi))
        }
    }

    pub(crate) fn get_mut(&mut self, &(imsi, nsapi): &(Imsi, Nsapi)) -> Option<&mut V> {
        if Some(nsapi) == self.nsapi {
            self.by_imsi.get_mut(&imsi)
        } else {
            self.rest.get_mut(&(imsi, nsapi))
        }
    }

    pub(crate) fn insert(&mut self, (imsi, nsapi): (Imsi, Nsapi), value: V) -> Option<V> {
        if Some(nsapi) == self.nsapi {
            self.by_imsi.insert(imsi, value)
        } else {
            self.rest.insert((imsi, nsapi), value)
        }
    }

    pub(crate) fn remove(&mut self, &(imsi, nsapi): &(Imsi, Nsapi)) -> Option<V> {
        if Some(nsapi) == self.nsapi {
            self.by_imsi.remove(&imsi)
        } else {
            self.rest.remove(&(imsi, nsapi))
        }
    }

    /// The NSAPIs `imsi` holds a context under, lowest first.
    pub(crate) fn nsapis_of(&self, imsi: Imsi) -> Vec<Nsapi> {
        let declared = self.nsapi.filter(|_| self.by_imsi.contains_key(&imsi));
        let mut nsapis: Vec<Nsapi> = declared
            .into_iter()
            .chain(
                self.rest
                    .keys()
                    .filter(|(i, _)| *i == imsi)
                    .map(|(_, n)| *n),
            )
            .collect();
        nsapis.sort_unstable();
        nsapis
    }

    pub(crate) fn clear(&mut self) {
        self.by_imsi.clear();
        self.rest.clear();
    }
}
