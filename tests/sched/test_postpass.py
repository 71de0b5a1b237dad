"""Post-pass: copies, SEND/RECV planning."""

from repro.sched import run_postpass, schedule_sms, schedule_tms, Schedule


def test_channels_cover_inter_iteration_reg_deps(fig1_ddg, fig1_machine, arch):
    sched = schedule_sms(fig1_ddg, fig1_machine)
    pipelined = run_postpass(sched, arch)
    chan_edges = {(ch.edge.src, ch.edge.dst) for ch in pipelined.comm.channels}
    expected = {(e.src, e.dst) for e in sched.inter_iteration_register_deps()}
    assert chan_edges == expected


def test_shared_producer_counted_once(fig1_ddg, fig1_machine, arch):
    # n6 -> n0 and n6 -> n6 share producer n6: one SEND/RECV pair suffices
    sched = schedule_sms(fig1_ddg, fig1_machine)
    pipelined = run_postpass(sched, arch)
    producers = [ch.edge.src for ch in pipelined.comm.channels]
    assert producers.count("n6") == 2  # two channels...
    # ...but pairs are per producer (chain length = max hops)
    assert pipelined.comm.pairs_per_iteration == 3  # n6, n7, n8


def test_copies_for_multi_hop(axpy_ddg, resources, arch):
    sched = schedule_sms(axpy_ddg, resources)
    slots = dict(sched.slots)
    # force the accumulator's consumer two stages later -> d_ker 3
    pipelined = run_postpass(sched, arch)
    assert pipelined.comm.copies == sum(
        h - 1 for h in
        {ch.edge.src: ch.hops for ch in pipelined.comm.channels}.values()
        if h > 1)


def test_speculated_deps_listed(fig1_ddg, fig1_machine, arch):
    sched = schedule_sms(fig1_ddg, fig1_machine)
    pipelined = run_postpass(sched, arch)
    spec = {(e.src, e.dst) for e in pipelined.speculated}
    assert spec == {("n5", "n0"), ("n5", "n2"), ("n5", "n3")}


def test_synchronize_memory_mode(fig1_ddg, fig1_machine, arch):
    sched = schedule_sms(fig1_ddg, fig1_machine)
    pipelined = run_postpass(sched, arch, synchronize_memory=True)
    assert pipelined.speculated == ()
    chan_edges = {(ch.edge.src, ch.edge.dst) for ch in pipelined.comm.channels}
    assert ("n5", "n0") in chan_edges
