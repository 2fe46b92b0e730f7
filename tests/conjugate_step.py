"""The letter-level right conjugation of a morphism, built on the
``Morphism`` type: the oracle of the bytes-level chain walk
``words._conjugates`` and so of ``morphisms._sturmian_images``."""

from ietwords import DomainError, FiniteWord, Morphism


def right_conjugate_step(morphism: Morphism) -> Morphism | None:
    """Conjugate by the shared first letter, or ``None`` when the images
    do not all start with the same letter."""
    if not morphism.is_nonerasing:
        raise DomainError("right conjugation needs a non-erasing morphism")
    first = {image.letters[0] for image in morphism.images}
    if len(first) != 1:
        return None
    head = bytes([first.pop()])
    return Morphism(
        morphism.alphabet,
        tuple(
            FiniteWord(morphism.alphabet, image.letters[1:] + head)
            for image in morphism.images
        ),
    )
