//! # kar-rns — Residue Number System substrate for KAR
//!
//! The KAR routing system ("Key-for-Any-Route", DSN-W 2016) encodes an
//! entire forwarding path into a single integer *route ID* using the
//! Residue Number System: each core switch owns a coprime *switch ID*
//! `sᵢ`, and a packet carrying route ID `R` leaves switch `sᵢ` through
//! port `R mod sᵢ`. This crate is the number-theoretic foundation:
//!
//! * [`BigUint`] — minimal arbitrary-precision unsigned integers (route
//!   IDs exceed native widths once protection paths are folded in);
//! * [`gcd`], [`extended_gcd`], [`mod_inverse`] — Euclidean toolkit;
//! * [`RnsBasis`], [`crt_encode`], [`crt_seal`], [`crt_decode`],
//!   [`crt_extend`], [`residue`] — the Chinese-Remainder encoder of paper
//!   §2.2 (one Garner mixed-radix kernel under every entry point);
//! * [`Reducer`] — precomputed per-switch reduction constants for the
//!   forwarding modulus (division-free `R mod sᵢ`);
//! * [`route_id_bit_length`] — header-size math of paper §2.3 (Eq. 9);
//! * [`IdAllocator`], [`pairwise_coprime`] — switch-ID assignment.
//!
//! # Examples
//!
//! Reproducing the paper's worked example end to end:
//!
//! ```
//! use kar_rns::{crt_encode, crt_extend, residue, RnsBasis};
//!
//! // Primary path: switches {4, 7, 11} exit via ports {0, 2, 0}.
//! let basis = RnsBasis::new(vec![4, 7, 11])?;
//! let route_id = crt_encode(&basis, &[0, 2, 0])?;
//! assert_eq!(route_id.to_u64(), Some(44));
//!
//! // Fold in the protection switch 5 (port 0) → driven deflection.
//! let (protected, _basis) = crt_extend(&route_id, &basis, 5, 0)?;
//! assert_eq!(protected.to_u64(), Some(660));
//!
//! // Any switch forwards with one modulo:
//! assert_eq!(residue(&protected, 7), 2);
//! assert_eq!(residue(&protected, 5), 0);
//! # Ok::<(), kar_rns::RnsError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod biguint;
mod coprime;
mod crt;
mod gcd;
mod reducer;

pub use biguint::{BigUint, ParseBigUintError};
pub use coprime::{
    first_common_factor, is_prime, pairwise_coprime, IdAllocator, IdError, IdStrategy,
};
pub use crt::{
    crt_decode, crt_encode, crt_extend, crt_seal, residue, route_id_bit_length, RnsBasis, RnsError,
};
pub use gcd::{coprime, extended_gcd, gcd, lcm, mod_inverse};
pub use reducer::Reducer;
