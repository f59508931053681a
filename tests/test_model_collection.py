"""Model-based property test: Collection vs a plain dict model.

A hypothesis state machine drives random sequences of adds, removes,
epoch advances, enumerations and compactions against an SMC of each block
layout, checking after every step that the collection's live contents
exactly match a reference dict — the collection's containment semantics
in miniature, read and written through the one handle type.  Columnar
collections refuse compaction, so that rule runs on the row layout only.
"""

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.core.collection import Collection
from repro.core.columnar import ColumnarCollection
from repro.errors import NullReferenceError
from repro.memory.manager import MemoryManager

from tests.schemas import TPerson


class CollectionModel(RuleBasedStateMachine):
    layout = Collection

    @initialize()
    def setup(self):
        self.manager = MemoryManager(block_shift=10, reclamation_threshold=0.1)
        self.collection = self.layout(TPerson, manager=self.manager)
        self.model = {}  # handle -> (name, age)
        self.removed = []
        self.counter = 0

    @rule(age=st.integers(min_value=0, max_value=10**6))
    def add(self, age):
        self.counter += 1
        name = f"p{self.counter}"
        handle = self.collection.add(name=name, age=age)
        self.model[handle] = (name, age)

    @rule()
    def remove_one(self):
        if not self.model:
            return
        handle = next(iter(self.model))
        self.collection.remove(handle)
        del self.model[handle]
        self.removed.append(handle)

    @rule()
    def advance_epoch(self):
        self.manager.advance_epoch()

    @precondition(lambda self: self.layout is Collection)
    @rule()
    def compact(self):
        self.collection.compact(occupancy_threshold=0.6)

    @rule(age=st.integers(min_value=0, max_value=100))
    def update_age(self, age):
        if not self.model:
            return
        handle = next(iter(self.model))
        handle.age = age
        name, __ = self.model[handle]
        self.model[handle] = (name, age)

    @invariant()
    def live_count_matches(self):
        if not hasattr(self, "collection"):
            return
        assert len(self.collection) == len(self.model)

    @invariant()
    def contents_match(self):
        if not hasattr(self, "collection"):
            return
        got = sorted((h.name, h.age) for h in self.collection)
        expected = sorted(self.model.values())
        assert got == expected

    @invariant()
    def handles_read_back(self):
        if not hasattr(self, "collection"):
            return
        for handle, (name, age) in self.model.items():
            assert handle.name == name
            assert handle.age == age

    @invariant()
    def removed_stay_null(self):
        if not hasattr(self, "collection"):
            return
        for handle in self.removed[-5:]:
            assert not handle.is_alive
            with pytest.raises(NullReferenceError):
                __ = handle.age

    def teardown(self):
        if hasattr(self, "manager"):
            self.manager.close()


CollectionModel.TestCase.settings = settings(
    max_examples=25, stateful_step_count=40, deadline=None
)
TestCollectionModel = CollectionModel.TestCase


class ColumnarCollectionModel(CollectionModel):
    layout = ColumnarCollection


ColumnarCollectionModel.TestCase.settings = CollectionModel.TestCase.settings
TestColumnarCollectionModel = ColumnarCollectionModel.TestCase
