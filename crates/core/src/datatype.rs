//! Minimal datatype descriptions.
//!
//! MPI datatypes describe how typed elements map onto bytes, including
//! non-contiguous layouts. cMPI's data path only ever moves bytes, so this
//! module provides just enough structure for the examples and collectives:
//! contiguous runs of fixed-size elements and strided vectors (the layout the
//! halo-exchange example uses for column boundaries), plus pack/unpack.

/// Element kinds with a fixed byte width.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ElemKind {
    /// 8-bit unsigned integer.
    U8,
    /// 32-bit signed integer.
    I32,
    /// 64-bit unsigned integer.
    U64,
    /// 64-bit IEEE float.
    F64,
}

impl ElemKind {
    /// Size of one element in bytes.
    pub fn size(&self) -> usize {
        match self {
            ElemKind::U8 => 1,
            ElemKind::I32 => 4,
            ElemKind::U64 => 8,
            ElemKind::F64 => 8,
        }
    }
}

/// A datatype: either a contiguous run of elements or a strided vector of
/// fixed-length blocks (`count` blocks of `block_len` elements separated by
/// `stride` elements).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Datatype {
    /// `count` contiguous elements.
    Contiguous {
        /// Element kind.
        kind: ElemKind,
        /// Number of elements.
        count: usize,
    },
    /// Strided vector, as in `MPI_Type_vector`.
    Vector {
        /// Element kind.
        kind: ElemKind,
        /// Number of blocks.
        count: usize,
        /// Elements per block.
        block_len: usize,
        /// Elements between block starts.
        stride: usize,
    },
}

impl Datatype {
    /// A contiguous run of `count` elements of `kind`.
    pub fn contiguous(kind: ElemKind, count: usize) -> Self {
        Datatype::Contiguous { kind, count }
    }

    /// A strided vector, as created by `MPI_Type_vector`.
    pub fn vector(kind: ElemKind, count: usize, block_len: usize, stride: usize) -> Self {
        Datatype::Vector {
            kind,
            count,
            block_len,
            stride,
        }
    }

    /// Number of payload bytes the datatype describes (the packed size).
    pub fn packed_size(&self) -> usize {
        match *self {
            Datatype::Contiguous { kind, count } => kind.size() * count,
            Datatype::Vector {
                kind,
                count,
                block_len,
                ..
            } => kind.size() * count * block_len,
        }
    }

    /// Number of bytes the datatype spans in the source buffer (the extent).
    pub fn extent(&self) -> usize {
        match *self {
            Datatype::Contiguous { kind, count } => kind.size() * count,
            Datatype::Vector {
                kind,
                count,
                block_len,
                stride,
            } => {
                if count == 0 {
                    0
                } else {
                    kind.size() * ((count - 1) * stride + block_len)
                }
            }
        }
    }

    /// Pack the described elements of `src` into a contiguous buffer.
    /// Panics if `src` is shorter than the datatype's extent.
    pub fn pack(&self, src: &[u8]) -> Vec<u8> {
        assert!(
            src.len() >= self.extent(),
            "source buffer of {} bytes shorter than extent {}",
            src.len(),
            self.extent()
        );
        match *self {
            Datatype::Contiguous { .. } => src[..self.packed_size()].to_vec(),
            // A vector whose blocks abut (`block_len == stride`) is laid out
            // contiguously: one memcpy instead of a per-block gather.
            Datatype::Vector {
                block_len, stride, ..
            } if block_len == stride => src[..self.packed_size()].to_vec(),
            Datatype::Vector {
                kind,
                count,
                block_len,
                stride,
            } => {
                let esz = kind.size();
                let mut out = Vec::with_capacity(self.packed_size());
                for b in 0..count {
                    let start = b * stride * esz;
                    out.extend_from_slice(&src[start..start + block_len * esz]);
                }
                out
            }
        }
    }

    /// Unpack a contiguous buffer into the described positions of `dst`.
    /// Panics if `packed` is shorter than the packed size or `dst` shorter
    /// than the extent.
    pub fn unpack(&self, packed: &[u8], dst: &mut [u8]) {
        assert!(packed.len() >= self.packed_size());
        assert!(
            dst.len() >= self.extent(),
            "destination buffer of {} bytes shorter than extent {}",
            dst.len(),
            self.extent()
        );
        match *self {
            Datatype::Contiguous { .. } => {
                dst[..self.packed_size()].copy_from_slice(&packed[..self.packed_size()]);
            }
            // Abutting blocks scatter back as one contiguous run.
            Datatype::Vector {
                block_len, stride, ..
            } if block_len == stride => {
                dst[..self.packed_size()].copy_from_slice(&packed[..self.packed_size()]);
            }
            Datatype::Vector {
                kind,
                count,
                block_len,
                stride,
            } => {
                let esz = kind.size();
                for b in 0..count {
                    let start = b * stride * esz;
                    dst[start..start + block_len * esz]
                        .copy_from_slice(&packed[b * block_len * esz..(b + 1) * block_len * esz]);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contiguous_sizes() {
        let dt = Datatype::contiguous(ElemKind::F64, 10);
        assert_eq!(dt.packed_size(), 80);
        assert_eq!(dt.extent(), 80);
    }

    #[test]
    fn vector_sizes() {
        // 3 blocks of 2 f64s, stride 5 elements.
        let dt = Datatype::vector(ElemKind::F64, 3, 2, 5);
        assert_eq!(dt.packed_size(), 3 * 2 * 8);
        assert_eq!(dt.extent(), (2 * 5 + 2) * 8);
        let empty = Datatype::vector(ElemKind::F64, 0, 2, 5);
        assert_eq!(empty.extent(), 0);
    }

    #[test]
    fn contiguous_pack_roundtrip() {
        let dt = Datatype::contiguous(ElemKind::U8, 4);
        let src = [1u8, 2, 3, 4, 99, 99];
        let packed = dt.pack(&src);
        assert_eq!(packed, vec![1, 2, 3, 4]);
        let mut dst = [0u8; 4];
        dt.unpack(&packed, &mut dst);
        assert_eq!(dst, [1, 2, 3, 4]);
    }

    #[test]
    fn vector_pack_roundtrip() {
        // A 4x4 matrix of u8; pack column 1 (block_len 1, stride 4, count 4).
        let dt = Datatype::vector(ElemKind::U8, 4, 1, 4);
        #[rustfmt::skip]
        let matrix: Vec<u8> = vec![
            0, 1, 2, 3,
            4, 5, 6, 7,
            8, 9, 10, 11,
            12, 13, 14, 15,
        ];
        let col1 = dt.pack(&matrix[1..]);
        assert_eq!(col1, vec![1, 5, 9, 13]);
        let mut out = vec![0u8; matrix.len()];
        dt.unpack(&col1, &mut out[1..]);
        assert_eq!(out[1], 1);
        assert_eq!(out[5], 5);
        assert_eq!(out[13], 13);
        assert_eq!(out[0], 0);
    }

    #[test]
    #[should_panic(expected = "shorter than extent")]
    fn pack_checks_bounds() {
        let dt = Datatype::vector(ElemKind::F64, 3, 2, 5);
        dt.pack(&[0u8; 8]);
    }

    #[test]
    fn elem_sizes() {
        assert_eq!(ElemKind::U8.size(), 1);
        assert_eq!(ElemKind::I32.size(), 4);
        assert_eq!(ElemKind::U64.size(), 8);
        assert_eq!(ElemKind::F64.size(), 8);
    }

    /// Deterministic generator for the property tests (no external crates).
    struct Lcg(u64);

    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            self.0 >> 33
        }

        fn below(&mut self, n: u64) -> usize {
            (self.next() % n.max(1)) as usize
        }
    }

    /// Scalar reference implementation of vector pack: walk the blocks
    /// element by element.
    fn pack_reference(
        kind: ElemKind,
        count: usize,
        block_len: usize,
        stride: usize,
        src: &[u8],
    ) -> Vec<u8> {
        let esz = kind.size();
        let mut out = Vec::new();
        for b in 0..count {
            for e in 0..block_len * esz {
                out.push(src[b * stride * esz + e]);
            }
        }
        out
    }

    #[test]
    fn vector_pack_unpack_roundtrip_matches_scalar_reference() {
        let mut rng = Lcg(0xDA7A_7E57);
        for kind in [ElemKind::U8, ElemKind::I32, ElemKind::U64, ElemKind::F64] {
            for _ in 0..50 {
                let count = rng.below(9); // includes the zero-count edge
                let block_len = 1 + rng.below(5);
                let stride = block_len + rng.below(7); // includes block_len == stride
                let dt = Datatype::vector(kind, count, block_len, stride);
                let src: Vec<u8> = (0..dt.extent().max(1) + rng.below(16))
                    .map(|_| rng.next() as u8)
                    .collect();

                let packed = dt.pack(&src);
                assert_eq!(packed.len(), dt.packed_size());
                assert_eq!(
                    packed,
                    pack_reference(kind, count, block_len, stride, &src),
                    "{kind:?} count={count} block={block_len} stride={stride}"
                );

                // Round trip: unpack into a scribble-filled destination must
                // restore exactly the described positions and nothing else.
                let mut dst: Vec<u8> = (0..src.len()).map(|_| rng.next() as u8).collect();
                let before = dst.clone();
                dt.unpack(&packed, &mut dst);
                let esz = kind.size();
                let mut described = vec![false; dst.len()];
                for b in 0..count {
                    for e in 0..block_len * esz {
                        described[b * stride * esz + e] = true;
                    }
                }
                for (i, &is_described) in described.iter().enumerate() {
                    if is_described {
                        assert_eq!(dst[i], src[i], "described byte {i} not restored");
                    } else {
                        assert_eq!(dst[i], before[i], "gap byte {i} clobbered");
                    }
                }
            }
        }
    }

    #[test]
    fn contiguity_fast_path_equals_strided_semantics() {
        // block_len == stride means the vector is one contiguous run: it must
        // behave exactly like the equivalent contiguous datatype.
        let dt = Datatype::vector(ElemKind::I32, 6, 3, 3);
        let eq = Datatype::contiguous(ElemKind::I32, 18);
        assert_eq!(dt.packed_size(), eq.packed_size());
        assert_eq!(dt.extent(), eq.extent());
        let src: Vec<u8> = (0..dt.extent() + 8).map(|i| (i * 37 % 251) as u8).collect();
        assert_eq!(dt.pack(&src), eq.pack(&src));
        let packed = dt.pack(&src);
        let mut a = vec![0u8; src.len()];
        let mut b = vec![0u8; src.len()];
        dt.unpack(&packed, &mut a);
        eq.unpack(&packed, &mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn zero_count_vector_is_empty() {
        let dt = Datatype::vector(ElemKind::F64, 0, 4, 9);
        assert_eq!(dt.packed_size(), 0);
        assert_eq!(dt.extent(), 0);
        assert_eq!(dt.pack(&[]), Vec::<u8>::new());
        let mut dst: [u8; 4] = [7; 4];
        dt.unpack(&[], &mut dst);
        assert_eq!(dst, [7; 4]); // nothing described, nothing touched
    }
}
