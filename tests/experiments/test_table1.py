from repro.config import ArchConfig
from repro.experiments import table1


def test_contains_paper_values():
    text = table1()
    for fragment in ("3 cycles", "2 cycles", "15 cycles", "80 cycles",
                     "SEND/RECV"):
        assert fragment in text


def test_respects_overrides():
    text = table1(ArchConfig(ncore=8, reg_comm_latency=1))
    assert "8" in text and "1 cycles" in text
