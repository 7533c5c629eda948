//! The three forms of a collective are one collective.
//!
//! For each of the 13 collectives, on both transports and a power-of-two and
//! an odd rank count, the blocking call, the `i*` + `wait` pair and the
//! `*_init` + `start` + `wait` triple must give byte-identical results, run
//! the same algorithm and account the same per-communicator counters — and
//! all three must reject the same malformed arguments before anything is
//! sent. Runs under the `CMPI_HOSTS` and `CMPI_DATA_PLANE` matrices like the
//! other suites.

use cmpi::mpi::pod::bytes_of;
use cmpi::mpi::{Comm, CommCollStats, MpiError, ReduceOp, Request, Result, Universe};

mod common;
use common::configs;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Form {
    Blocking,
    Nonblocking,
    Persistent,
}

const FORMS: [Form; 3] = [Form::Blocking, Form::Nonblocking, Form::Persistent];

/// Elements per rank-block in every case.
const BLOCK: usize = 3;

/// Deterministic input of `len` elements for rank `me`.
fn input(me: usize, len: usize) -> Vec<u64> {
    (0..len)
        .map(|i| (me as u64 + 1) * 1000 + i as u64)
        .collect()
}

/// Segment sizes of the irregular exchanges: symmetric in (sender, receiver),
/// with empty segments.
fn counts(me: usize, n: usize) -> Vec<usize> {
    (0..n).map(|peer| (me + peer) % 3).collect()
}

/// Complete a request the way its form does and return the result bytes.
fn complete(comm: &mut Comm, mut request: Request) -> Result<Vec<u8>> {
    if request.is_persistent() {
        comm.start(&mut request)?;
        comm.wait(&mut request)?;
        request.read_result::<u8>()
    } else {
        comm.wait(&mut request)?;
        request.take_data()
    }
}

/// One collective in one form: this rank's result bytes (empty where the
/// operation leaves this rank none).
type Case = fn(&mut Comm, Form) -> Result<Vec<u8>>;

const CASES: [(&str, Case); 13] = [
    ("barrier", |comm, form| match form {
        Form::Blocking => comm.barrier().map(|()| Vec::new()),
        Form::Nonblocking => comm.ibarrier().and_then(|r| complete(comm, r)),
        Form::Persistent => comm.barrier_init().and_then(|r| complete(comm, r)),
    }),
    ("bcast", |comm, form| {
        let root = comm.size() - 1;
        let mut buf = input(comm.rank(), BLOCK);
        match form {
            Form::Blocking => comm
                .bcast_into(root, &mut buf)
                .map(|()| bytes_of(&buf).to_vec()),
            Form::Nonblocking => comm.ibcast_into(root, &buf).and_then(|r| complete(comm, r)),
            Form::Persistent => comm.bcast_init(root, &buf).and_then(|r| complete(comm, r)),
        }
    }),
    ("gather", |comm, form| {
        let (n, me, root) = (comm.size(), comm.rank(), 1 % comm.size());
        let send = input(me, BLOCK);
        match form {
            Form::Blocking => {
                let mut recv = vec![0u64; n * BLOCK];
                let at_root = (me == root).then_some(&mut recv[..]);
                comm.gather_into(root, &send, at_root)?;
                Ok(if me == root {
                    bytes_of(&recv).to_vec()
                } else {
                    Vec::new()
                })
            }
            Form::Nonblocking => comm
                .igather_into(root, &send)
                .and_then(|r| complete(comm, r)),
            Form::Persistent => comm
                .gather_init(root, &send)
                .and_then(|r| complete(comm, r)),
        }
    }),
    ("scatter", |comm, form| {
        let (n, me, root) = (comm.size(), comm.rank(), 1 % comm.size());
        let all = input(me, n * BLOCK);
        let send = (me == root).then_some(&all[..]);
        match form {
            Form::Blocking => {
                let mut recv = vec![0u64; BLOCK];
                comm.scatter_from(root, send, &mut recv)?;
                Ok(bytes_of(&recv).to_vec())
            }
            Form::Nonblocking => comm
                .iscatter_from(root, send, BLOCK)
                .and_then(|r| complete(comm, r)),
            Form::Persistent => comm
                .scatter_init(root, send, BLOCK)
                .and_then(|r| complete(comm, r)),
        }
    }),
    ("allgather", |comm, form| {
        let send = input(comm.rank(), BLOCK);
        match form {
            Form::Blocking => {
                let mut recv = vec![0u64; comm.size() * BLOCK];
                comm.allgather_into(&send, &mut recv)?;
                Ok(bytes_of(&recv).to_vec())
            }
            Form::Nonblocking => comm.iallgather_into(&send).and_then(|r| complete(comm, r)),
            Form::Persistent => comm.allgather_init(&send).and_then(|r| complete(comm, r)),
        }
    }),
    ("reduce", |comm, form| {
        let root = comm.size() - 1;
        let values = input(comm.rank(), BLOCK);
        match form {
            Form::Blocking => comm
                .reduce(root, &values, ReduceOp::Max)
                .map(|out| out.map_or(Vec::new(), |v| bytes_of(&v).to_vec())),
            Form::Nonblocking => comm
                .ireduce(root, &values, ReduceOp::Max)
                .and_then(|r| complete(comm, r)),
            Form::Persistent => comm
                .reduce_init(root, &values, ReduceOp::Max)
                .and_then(|r| complete(comm, r)),
        }
    }),
    ("allreduce", |comm, form| {
        let mut values = input(comm.rank(), BLOCK);
        match form {
            Form::Blocking => comm
                .allreduce(&mut values, ReduceOp::Sum)
                .map(|()| bytes_of(&values).to_vec()),
            Form::Nonblocking => comm
                .iallreduce(&values, ReduceOp::Sum)
                .and_then(|r| complete(comm, r)),
            Form::Persistent => comm
                .allreduce_init(&values, ReduceOp::Sum)
                .and_then(|r| complete(comm, r)),
        }
    }),
    ("reduce_scatter", |comm, form| {
        let values = input(comm.rank(), comm.size() * BLOCK);
        match form {
            Form::Blocking => comm
                .reduce_scatter(&values, ReduceOp::Sum)
                .map(|v| bytes_of(&v).to_vec()),
            Form::Nonblocking => comm
                .ireduce_scatter(&values, ReduceOp::Sum)
                .and_then(|r| complete(comm, r)),
            Form::Persistent => comm
                .reduce_scatter_init(&values, ReduceOp::Sum)
                .and_then(|r| complete(comm, r)),
        }
    }),
    ("scan", |comm, form| {
        let mut values = input(comm.rank(), BLOCK);
        match form {
            Form::Blocking => comm
                .scan(&mut values, ReduceOp::Sum)
                .map(|()| bytes_of(&values).to_vec()),
            Form::Nonblocking => comm
                .iscan(&values, ReduceOp::Sum)
                .and_then(|r| complete(comm, r)),
            Form::Persistent => comm
                .scan_init(&values, ReduceOp::Sum)
                .and_then(|r| complete(comm, r)),
        }
    }),
    ("exscan", |comm, form| {
        let mut values = input(comm.rank(), BLOCK);
        match form {
            // Rank 0 has no exclusive prefix: the blocking form leaves its
            // buffer alone, the request forms yield nothing.
            Form::Blocking => comm.exscan(&mut values, ReduceOp::Sum).map(|()| {
                if comm.rank() == 0 {
                    Vec::new()
                } else {
                    bytes_of(&values).to_vec()
                }
            }),
            Form::Nonblocking => comm
                .iexscan(&values, ReduceOp::Sum)
                .and_then(|r| complete(comm, r)),
            Form::Persistent => comm
                .exscan_init(&values, ReduceOp::Sum)
                .and_then(|r| complete(comm, r)),
        }
    }),
    ("alltoall", |comm, form| {
        let send = input(comm.rank(), comm.size() * BLOCK);
        match form {
            Form::Blocking => {
                let mut recv = vec![0u64; send.len()];
                comm.alltoall(&send, &mut recv)?;
                Ok(bytes_of(&recv).to_vec())
            }
            Form::Nonblocking => comm.ialltoall(&send).and_then(|r| complete(comm, r)),
            Form::Persistent => comm.alltoall_init(&send).and_then(|r| complete(comm, r)),
        }
    }),
    ("alltoallv", |comm, form| {
        let c = counts(comm.rank(), comm.size());
        let send = input(comm.rank(), c.iter().sum());
        match form {
            Form::Blocking => comm.alltoallv(&send, &c, &c).map(|v| bytes_of(&v).to_vec()),
            Form::Nonblocking => comm
                .ialltoallv(&send, &c, &c)
                .and_then(|r| complete(comm, r)),
            Form::Persistent => comm
                .alltoallv_init(&send, &c, &c)
                .and_then(|r| complete(comm, r)),
        }
    }),
    ("alltoallw", |comm, form| {
        let c = counts(comm.rank(), comm.size());
        let send = vec![comm.rank() as u8 + 1; c.iter().sum()];
        match form {
            Form::Blocking => comm.alltoallw_bytes(&send, &c, &c),
            Form::Nonblocking => comm
                .ialltoallw(&send, &c, &c)
                .and_then(|r| complete(comm, r)),
            Form::Persistent => comm
                .alltoallw_init(&send, &c, &c)
                .and_then(|r| complete(comm, r)),
        }
    }),
];

/// What one rank observed running every case in one form: per case the
/// result bytes and the algorithm label, plus the rank's final counters.
type Observed = (Vec<(Vec<u8>, &'static str)>, Vec<CommCollStats>);

#[test]
fn blocking_nonblocking_and_persistent_agree() {
    for n in [2usize, 5] {
        for (label, config) in configs(n) {
            let observe = |form: Form| -> Vec<Observed> {
                Universe::run(config.clone(), move |world: &mut Comm| {
                    // A duplicate, not world: world's blocking barrier is the
                    // transport's sequence barrier, which has no other form.
                    let comm = &mut world.comm_dup()?;
                    CASES
                        .iter()
                        .map(|(_, case)| Ok((case(comm, form)?, comm.last_coll_algorithm())))
                        .collect::<Result<Vec<_>>>()
                })
                .unwrap_or_else(|e| panic!("{label} n={n} {form:?}: {e}"))
                .into_iter()
                .map(|(cases, report)| (cases, report.comm_colls))
                .collect()
            };
            let blocking = observe(Form::Blocking);
            for form in [Form::Nonblocking, Form::Persistent] {
                for (rank, (b, f)) in blocking.iter().zip(observe(form)).enumerate() {
                    for (((name, _), b), f) in CASES.iter().zip(&b.0).zip(&f.0) {
                        let at = format!("{label} n={n} rank {rank} {name}: blocking vs {form:?}");
                        assert_eq!(b.0, f.0, "{at}: results differ");
                        assert_eq!(b.1, f.1, "{at}: algorithms differ");
                    }
                    assert_eq!(b.1, f.1, "{label} n={n} rank {rank}: {form:?} counters");
                }
            }
            // The forms agreeing is not the same as being right: spot-check
            // the blocking results against the definition.
            let sums: Vec<u64> = (0..BLOCK)
                .map(|i| (0..n).map(|r| input(r, BLOCK)[i]).sum())
                .collect();
            for (rank, (cases, _)) in blocking.iter().enumerate() {
                assert_eq!(cases[1].0, bytes_of(&input(n - 1, BLOCK)), "{label} bcast");
                assert_eq!(cases[6].0, bytes_of(&sums), "{label} allreduce");
                let mine: Vec<u64> = (0..n)
                    .flat_map(|r| input(r, n * BLOCK)[rank * BLOCK..][..BLOCK].to_vec())
                    .collect();
                assert_eq!(cases[10].0, bytes_of(&mine), "{label} alltoall");
            }
        }
    }
}

/// Who makes a malformed call: a check on the root's buffer only trips on
/// the root, and the others must not start a collective the root never joins.
#[derive(Clone, Copy)]
enum Who {
    Everyone,
    Rank(usize),
}

/// A malformed call in one form; `None` where the form has no such argument.
type BadCall = fn(&mut Comm, Form) -> Option<MpiError>;

fn rejected<T>(result: Result<T>) -> Option<MpiError> {
    Some(result.err().expect("malformed collective was accepted"))
}

const MALFORMED: [(&str, Who, bool, BadCall); 11] = [
    ("bcast root out of range", Who::Everyone, true, |c, f| {
        let (root, mut buf) = (c.size(), [0u64; BLOCK]);
        rejected(match f {
            Form::Blocking => c.bcast_into(root, &mut buf).map(drop),
            Form::Nonblocking => c.ibcast_into(root, &buf).map(drop),
            Form::Persistent => c.bcast_init(root, &buf).map(drop),
        })
    }),
    ("gather root out of range", Who::Everyone, true, |c, f| {
        let (root, send) = (c.size() + 3, [0u64; BLOCK]);
        rejected(match f {
            Form::Blocking => c.gather_into(root, &send, None),
            Form::Nonblocking => c.igather_into(root, &send).map(drop),
            Form::Persistent => c.gather_init(root, &send).map(drop),
        })
    }),
    ("scatter root out of range", Who::Everyone, true, |c, f| {
        let (root, mut recv) = (c.size(), [0u64; BLOCK]);
        rejected(match f {
            Form::Blocking => c.scatter_from::<u64>(root, None, &mut recv),
            Form::Nonblocking => c.iscatter_from::<u64>(root, None, BLOCK).map(drop),
            Form::Persistent => c.scatter_init::<u64>(root, None, BLOCK).map(drop),
        })
    }),
    ("reduce root out of range", Who::Everyone, true, |c, f| {
        let (root, v) = (c.size(), [0u64; BLOCK]);
        rejected(match f {
            Form::Blocking => c.reduce(root, &v, ReduceOp::Sum).map(drop),
            Form::Nonblocking => c.ireduce(root, &v, ReduceOp::Sum).map(drop),
            Form::Persistent => c.reduce_init(root, &v, ReduceOp::Sum).map(drop),
        })
    }),
    (
        "scatter root buffer missing",
        Who::Rank(0),
        false,
        |c, f| {
            let mut recv = [0u64; BLOCK];
            rejected(match f {
                Form::Blocking => c.scatter_from::<u64>(0, None, &mut recv),
                Form::Nonblocking => c.iscatter_from::<u64>(0, None, BLOCK).map(drop),
                Form::Persistent => c.scatter_init::<u64>(0, None, BLOCK).map(drop),
            })
        },
    ),
    (
        "scatter root buffer too short",
        Who::Rank(0),
        false,
        |c, f| {
            let (send, mut recv) = (vec![0u64; c.size() * BLOCK - 1], [0u64; BLOCK]);
            rejected(match f {
                Form::Blocking => c.scatter_from(0, Some(&send), &mut recv),
                Form::Nonblocking => c.iscatter_from(0, Some(&send), BLOCK).map(drop),
                Form::Persistent => c.scatter_init(0, Some(&send), BLOCK).map(drop),
            })
        },
    ),
    (
        "reduce_scatter count not divisible",
        Who::Everyone,
        false,
        |c, f| {
            let v = vec![0u64; c.size() * BLOCK + 1];
            rejected(match f {
                Form::Blocking => c.reduce_scatter(&v, ReduceOp::Sum).map(drop),
                Form::Nonblocking => c.ireduce_scatter(&v, ReduceOp::Sum).map(drop),
                Form::Persistent => c.reduce_scatter_init(&v, ReduceOp::Sum).map(drop),
            })
        },
    ),
    (
        "alltoall count not divisible",
        Who::Everyone,
        false,
        |c, f| {
            let send = vec![0u64; c.size() * BLOCK + 1];
            let mut recv = send.clone();
            rejected(match f {
                Form::Blocking => c.alltoall(&send, &mut recv),
                Form::Nonblocking => c.ialltoall(&send).map(drop),
                Form::Persistent => c.alltoall_init(&send).map(drop),
            })
        },
    ),
    (
        "alltoallv counts disagree with buffer",
        Who::Everyone,
        false,
        |c, f| {
            let counts = vec![1usize; c.size()];
            let send = vec![0u64; c.size() + 1];
            rejected(match f {
                Form::Blocking => c.alltoallv(&send, &counts, &counts).map(drop),
                Form::Nonblocking => c.ialltoallv(&send, &counts, &counts).map(drop),
                Form::Persistent => c.alltoallv_init(&send, &counts, &counts).map(drop),
            })
        },
    ),
    (
        "alltoallw one count per rank",
        Who::Everyone,
        false,
        |c, f| {
            let counts = vec![1usize; c.size() + 1];
            let send = vec![0u8; c.size() + 1];
            rejected(match f {
                Form::Blocking => c.alltoallw_bytes(&send, &counts, &counts).map(drop),
                Form::Nonblocking => c.ialltoallw(&send, &counts, &counts).map(drop),
                Form::Persistent => c.alltoallw_init(&send, &counts, &counts).map(drop),
            })
        },
    ),
    // Only the blocking forms take a receive buffer.
    (
        "receive buffer of the wrong length",
        Who::Rank(0),
        false,
        |c, f| {
            if f != Form::Blocking {
                return None;
            }
            let send = vec![0u64; c.size() * BLOCK];
            let mut short = vec![0u64; c.size() * BLOCK - 1];
            for result in [
                c.allgather_into(&send[..BLOCK], &mut short),
                c.alltoall(&send, &mut short),
                c.gather_into(0, &send[..BLOCK], Some(&mut short)),
                c.gather_into(0, &send[..BLOCK], None),
            ] {
                assert!(matches!(result, Err(MpiError::InvalidCollective(_))));
            }
            None
        },
    ),
];

#[test]
fn every_form_rejects_the_same_malformed_arguments() {
    for n in [2usize, 5] {
        for (label, config) in configs(n) {
            Universe::run(config, move |comm: &mut Comm| {
                for (name, who, invalid_rank, call) in MALFORMED {
                    if matches!(who, Who::Rank(r) if r != comm.rank()) {
                        continue;
                    }
                    for form in FORMS {
                        let Some(e) = call(comm, form) else { continue };
                        let expected = match e {
                            MpiError::InvalidRank { .. } => invalid_rank,
                            MpiError::InvalidCollective(_) => !invalid_rank,
                            _ => false,
                        };
                        assert!(expected, "{label} n={n} {name} ({form:?}): {e}");
                    }
                }
                // A rejected call must leave nothing behind: no sequence
                // number drawn, nothing sent.
                let mut ones = [1u64];
                comm.allreduce(&mut ones, ReduceOp::Sum)?;
                assert_eq!(ones[0], comm.size() as u64);
                comm.barrier()
            })
            .unwrap_or_else(|e| panic!("{label} n={n}: {e}"));
        }
    }
}
