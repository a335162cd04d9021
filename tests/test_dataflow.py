"""Tests for the dataflow spec structures (repro.core.dataflow)."""

import pytest

from repro.core.dataflow import ExtendSpec, JoinSpec, ScanSpec, Segment


def scan(a=0, b=1):
    return ScanSpec(schema=(a, b))


def ext(schema_in, new):
    return ExtendSpec(ext=(0,), out_schema=tuple(schema_in) + (new,),
                      new_vertex=new)


class TestSegment:
    def test_scan_only(self):
        seg = Segment(source=scan())
        assert seg.out_schema == (0, 1)
        assert seg.num_operators == 1

    def test_chain_schema_follows_extends(self):
        seg = Segment(source=scan(), extends=[ext((0, 1), 2),
                                              ext((0, 1, 2), 3)])
        assert seg.out_schema == (0, 1, 2, 3)
        assert seg.num_operators == 3

    def test_join_segment_needs_children(self):
        spec = JoinSpec(left_key=(0,), right_key=(0,), right_carry=(1,),
                        out_schema=(0, 1, 2))
        with pytest.raises(ValueError):
            Segment(source=spec)

    def test_scan_segment_rejects_children(self):
        with pytest.raises(ValueError):
            Segment(source=scan(), left=Segment(source=scan()),
                    right=Segment(source=scan()))

    def test_join_tree_traversal(self):
        spec = JoinSpec(left_key=(1,), right_key=(0,), right_carry=(1,),
                        out_schema=(0, 1, 2))
        left = Segment(source=scan(0, 1))
        right = Segment(source=scan(1, 2))
        root = Segment(source=spec, left=left, right=right)
        segs = root.all_segments()
        assert segs == [left, right, root]
        assert sum(s.num_operators for s in segs) == 3

    def test_explicit_out_schema_kept(self):
        seg = Segment(source=scan(), out_schema=(1, 0))
        assert seg.out_schema == (1, 0)

    def test_extend_label_field_default(self):
        spec = ext((0, 1), 2)
        assert spec.new_label is None

    def test_scan_label_default(self):
        assert scan().labels == (None, None)

    def test_verify_flag(self):
        v = ExtendSpec(ext=(1,), out_schema=(0, 1), verify_pos=0)
        assert v.is_verify
        assert not ext((0, 1), 2).is_verify
