//! The error type of algorithm generation, shared by the general engine in
//! [`crate::enumerate`], the paper's reference tables in [`crate::chain`]
//! and [`crate::aatb`], and the [`Expression`](crate::Expression) adapters.

use crate::expr::ShapeError;
use std::fmt;

/// Errors produced while generating algorithms from an expression tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GenerateError {
    /// The expression tree contains a shape inconsistency.
    Shape(ShapeError),
    /// The expression has no factors (cannot happen with the public builders).
    Empty,
    /// A matrix chain was described with fewer than two matrices.
    TooFewMatrices {
        /// Length of the offending dimension tuple.
        dims_len: usize,
    },
    /// The same operand name is used with two different shapes.
    InconsistentOperand {
        /// The offending operand name.
        name: String,
    },
    /// The expression is a single transposed operand, which no kernel in the
    /// paper's set can realise (there is no standalone transpose kernel).
    BareTranspose {
        /// The transposed operand's name.
        name: String,
    },
    /// The expression is a single inverted operand; a solve has no
    /// right-hand side to apply the inverse to.
    BareInverse {
        /// The inverted operand's name.
        name: String,
    },
    /// The expression is a single pseudo-inverted operand; a least-squares
    /// solve has no right-hand side to apply the pseudo-inverse to.
    BarePseudoInverse {
        /// The pseudo-inverted operand's name.
        name: String,
    },
    /// A pseudo-inverse was applied to a wide operand; the QR realisation
    /// requires the operand (as used, after transposition) to be tall or
    /// square (`rows >= cols`).
    PseudoInverseWide {
        /// The pseudo-inverted operand's name.
        name: String,
    },
    /// An operand is used as both an inverse and a pseudo-inverse in the
    /// same factor (e.g. `(A^+)^-1`), which no kernel sequence realises.
    InversePseudoInverseMix {
        /// The offending operand's name.
        name: String,
    },
    /// No merge order of the expression reaches a complete kernel sequence.
    /// Inverses realise from either side (left- and right-side solves), so
    /// this now means: a solve's rectangular partner is transposed or
    /// triangle-stored in every order (as in `L^-1 * B^T`), two inverses
    /// meet in every merge (`L^-1 * M^-1`), a general inverse is transposed
    /// (`A^-T` — GETRF carries no transposition flag), or a pseudo-inverse
    /// sits on the right of every split (`b * A^+` — ORMQR applies `Q₁ᵀ`
    /// from the left only).
    NoRealisation {
        /// Display form of the unrealisable expression.
        expression: String,
    },
}

impl fmt::Display for GenerateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GenerateError::Shape(e) => write!(f, "shape error: {e}"),
            GenerateError::Empty => write!(f, "expression has no factors"),
            GenerateError::TooFewMatrices { dims_len } => write!(
                f,
                "a matrix chain needs at least two matrices ({dims_len} dims given)"
            ),
            GenerateError::InconsistentOperand { name } => {
                write!(f, "operand `{name}` is used with two different shapes")
            }
            GenerateError::BareTranspose { name } => {
                write!(
                    f,
                    "`{name}^T` alone has no kernel realisation (no standalone transpose kernel)"
                )
            }
            GenerateError::BareInverse { name } => {
                write!(
                    f,
                    "`{name}^-1` alone has no kernel realisation (a triangular solve \
                     needs a right-hand side to apply the inverse to)"
                )
            }
            GenerateError::BarePseudoInverse { name } => {
                write!(
                    f,
                    "`{name}^+` alone has no kernel realisation (a least-squares solve \
                     needs a right-hand side to apply the pseudo-inverse to)"
                )
            }
            GenerateError::PseudoInverseWide { name } => {
                write!(
                    f,
                    "`{name}^+` has no kernel realisation: the QR-based least-squares \
                     solve requires `{name}` (as used) to have at least as many rows \
                     as columns"
                )
            }
            GenerateError::InversePseudoInverseMix { name } => {
                write!(
                    f,
                    "`{name}` is used under both an inverse and a pseudo-inverse, \
                     which no kernel sequence realises"
                )
            }
            GenerateError::NoRealisation { expression } => {
                write!(
                    f,
                    "no kernel sequence realises `{expression}`: in every multiplication \
                     order a solve lacks a legal position — solves run from either side \
                     but need an untransposed, fully-stored rectangular partner (and a \
                     pseudo-inverse applies from the left only)"
                )
            }
        }
    }
}

impl std::error::Error for GenerateError {}

impl From<ShapeError> for GenerateError {
    fn from(e: ShapeError) -> Self {
        GenerateError::Shape(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_messages_are_informative() {
        assert!(GenerateError::Empty.to_string().contains("no factors"));
        assert!(GenerateError::TooFewMatrices { dims_len: 2 }
            .to_string()
            .contains("at least two"));
        assert!(GenerateError::InconsistentOperand { name: "A".into() }
            .to_string()
            .contains('A'));
    }
}
