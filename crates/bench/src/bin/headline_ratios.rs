//! The headline speedup ratios of the abstract and Section 4.2: cMPI vs TCP
//! over Ethernet (up to 49× latency / 72× bandwidth) and vs TCP over the
//! SmartNIC (up to 48× latency / 3.7× bandwidth for small messages).
//!
//! The CXL side is [`cmpi_bench::paper_cxl`] — the paper's protocol (`ConnMode::Eager`) —
//! so the ratios are the reproduction's; one extra line gives the two-sided
//! latency of this repository's default path for comparison.

use cmpi_bench::paper_cxl;
use cmpi_core::UniverseConfig;
use cmpi_fabric::cost::TcpNic;
use cmpi_omb::{
    one_sided_put_bandwidth, one_sided_put_latency, two_sided_bandwidth, two_sided_latency,
};

fn main() {
    println!("Headline ratios (cMPI over CXL SHM vs TCP baselines)\n");
    let small = 64usize; // a representative small message
    let bw_size = 16 * 1024; // the paper's small-message bandwidth sweet spot
    let procs = 8usize;

    let cxl = paper_cxl;
    let eth = |ranks: usize| UniverseConfig::tcp(ranks, TcpNic::StandardEthernet);
    let mlx = |ranks: usize| UniverseConfig::tcp(ranks, TcpNic::MellanoxCx6Dx);

    // One-sided latency ratios (the paper's largest latency gaps are one-sided).
    let cxl_1s_lat = one_sided_put_latency(cxl(2), small).unwrap().latency_us;
    let eth_1s_lat = one_sided_put_latency(eth(2), small).unwrap().latency_us;
    let mlx_1s_lat = one_sided_put_latency(mlx(2), small).unwrap().latency_us;
    println!("one-sided small-message latency: CXL {cxl_1s_lat:.1} us, Ethernet {eth_1s_lat:.1} us, Mellanox {mlx_1s_lat:.1} us");
    println!(
        "  -> cMPI is {:.1}x faster than TCP/Ethernet, {:.1}x faster than TCP/Mellanox (paper: up to 49x / 48x)",
        eth_1s_lat / cxl_1s_lat,
        mlx_1s_lat / cxl_1s_lat
    );

    // Two-sided latency.
    let cxl_2s_lat = two_sided_latency(cxl(2), small).unwrap().latency_us;
    let eth_2s_lat = two_sided_latency(eth(2), small).unwrap().latency_us;
    let mlx_2s_lat = two_sided_latency(mlx(2), small).unwrap().latency_us;
    println!("two-sided small-message latency: CXL {cxl_2s_lat:.1} us, Ethernet {eth_2s_lat:.1} us, Mellanox {mlx_2s_lat:.1} us");
    println!(
        "  -> cMPI is {:.1}x faster than TCP/Ethernet, {:.1}x faster than TCP/Mellanox (paper: up to 13.7x / 9.6x)",
        eth_2s_lat / cxl_2s_lat,
        mlx_2s_lat / cxl_2s_lat
    );
    let lazy_8b = two_sided_latency(UniverseConfig::cxl(2), 8).unwrap();
    println!(
        "  beyond the paper: the library default (lazy connections, streams) takes {:.3} us at 8 B",
        lazy_8b.latency_us
    );

    // Bandwidth ratios at the small-message sweet spot (16 KB).
    let cxl_1s_bw = one_sided_put_bandwidth(cxl(procs), bw_size)
        .unwrap()
        .bandwidth_mbps;
    let eth_1s_bw = one_sided_put_bandwidth(eth(procs), bw_size)
        .unwrap()
        .bandwidth_mbps;
    let mlx_1s_bw = one_sided_put_bandwidth(mlx(procs), bw_size)
        .unwrap()
        .bandwidth_mbps;
    println!("one-sided bandwidth at 16 KB, {procs} procs: CXL {cxl_1s_bw:.0} MB/s, Ethernet {eth_1s_bw:.0} MB/s, Mellanox {mlx_1s_bw:.0} MB/s");
    println!(
        "  -> cMPI delivers {:.1}x the Ethernet bandwidth and {:.1}x the SmartNIC bandwidth (paper: up to 71.6x / 3.7x)",
        cxl_1s_bw / eth_1s_bw,
        cxl_1s_bw / mlx_1s_bw
    );

    let cxl_2s_bw = two_sided_bandwidth(cxl(procs), bw_size)
        .unwrap()
        .bandwidth_mbps;
    let eth_2s_bw = two_sided_bandwidth(eth(procs), bw_size)
        .unwrap()
        .bandwidth_mbps;
    println!("two-sided bandwidth at 16 KB, {procs} procs: CXL {cxl_2s_bw:.0} MB/s, Ethernet {eth_2s_bw:.0} MB/s");
    println!(
        "  -> cMPI delivers {:.1}x the Ethernet bandwidth (paper: up to 48.2x)",
        cxl_2s_bw / eth_2s_bw
    );
}
